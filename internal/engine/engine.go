package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/spans"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// ErrStop is returned by an Observer's OnRoundEnd to halt the run cleanly
// (Engine.Run returns nil). Any other observer error aborts the run and is
// returned verbatim.
var ErrStop = errors.New("engine: stop requested")

// ErrBadConfig is returned when an engine configuration fails validation.
var ErrBadConfig = errors.New("engine: invalid configuration")

// Observer receives streamed per-round events. Implementations that only
// care about a subset should embed Hooks or leave methods empty; events
// fire in order OnContracts → OnOutcome (per agent, by ID) → OnRoundEnd.
//
// Observers let callers stream instead of accumulating ledgers: a
// million-round run with a streaming observer holds one Round in memory.
type Observer interface {
	// OnContracts fires after the policy posts the round's contracts. The
	// map is the engine's working copy — treat it as read-only and valid
	// only for the duration of the callback (policies reuse it across
	// rounds); copy it to retain it.
	OnContracts(round int, contracts map[string]*contract.PiecewiseLinear)
	// OnOutcome fires once per agent, in agent-ID order.
	OnOutcome(round int, oc AgentOutcome)
	// OnRoundEnd fires with the completed round. Returning ErrStop ends
	// the run cleanly; any other error aborts it.
	OnRoundEnd(round Round) error
}

// Hooks adapts optional funcs into an Observer; nil funcs are skipped.
type Hooks struct {
	Contracts func(round int, contracts map[string]*contract.PiecewiseLinear)
	Outcome   func(round int, oc AgentOutcome)
	RoundEnd  func(round Round) error
}

var _ Observer = Hooks{}

// OnContracts implements Observer.
func (h Hooks) OnContracts(round int, contracts map[string]*contract.PiecewiseLinear) {
	if h.Contracts != nil {
		h.Contracts(round, contracts)
	}
}

// OnOutcome implements Observer.
func (h Hooks) OnOutcome(round int, oc AgentOutcome) {
	if h.Outcome != nil {
		h.Outcome(round, oc)
	}
}

// OnRoundEnd implements Observer.
func (h Hooks) OnRoundEnd(round Round) error {
	if h.RoundEnd != nil {
		return h.RoundEnd(round)
	}
	return nil
}

// Ledger is the accumulating Observer: it collects every completed round,
// reproducing the []Round return of the pre-engine simulators.
type Ledger struct {
	Rounds []Round
}

var _ Observer = (*Ledger)(nil)

// OnContracts implements Observer.
func (l *Ledger) OnContracts(int, map[string]*contract.PiecewiseLinear) {}

// OnOutcome implements Observer.
func (l *Ledger) OnOutcome(int, AgentOutcome) {}

// OnRoundEnd implements Observer. The engine reuses the round's Outcomes
// backing array for the next round, so the ledger — which retains rounds
// past the callback — copies it.
func (l *Ledger) OnRoundEnd(round Round) error {
	round.Outcomes = append([]AgentOutcome(nil), round.Outcomes...)
	l.Rounds = append(l.Rounds, round)
	return nil
}

// Total sums the requester's utility over the collected rounds.
func (l *Ledger) Total() float64 { return TotalUtility(l.Rounds) }

// Responder chooses an agent's effort for a round instead of the exact
// myopic best response — the hook strategic adversaries plug into. The
// returned effort is clamped to [0, min(mδ, apex)].
type Responder func(round int, a *worker.Agent, c *contract.PiecewiseLinear, part effort.Partition) (float64, error)

// Config assembles one engine run.
type Config struct {
	// Policy prices each round. Required.
	Policy Policy
	// Rounds is the number of rounds to run. Required (> 0); observers can
	// end the run earlier through ErrStop.
	Rounds int
	// Drift, when non-nil, runs before each round and may mutate the
	// population (behaviour drift, weight re-estimation, …).
	Drift func(round int, pop *Population)
	// Responder, when non-nil, overrides the exact best response.
	Responder Responder
	// Observers receive the streamed events of every round.
	Observers []Observer
	// Cache, when non-nil, is wired into the policy (if it implements
	// CacheUser) and surfaced through Engine.CacheStats. Designs then
	// dedup across rounds, not just within one.
	Cache *Cache
	// Memo, when non-nil, memoizes exact best responses keyed by (design
	// fingerprint, contract): a warm round with k distinct fingerprints
	// performs at most k memo lookups and zero BestResponse calls. Ignored
	// when a custom Responder is set (hooks may be round-dependent). Like
	// the design cache, the memo is a pure optimization — the ledger is
	// byte-identical with or without it.
	Memo *RespondMemo
	// Shards partitions the ID-sorted agent view into min(Shards, agents)
	// deterministic shards by ID hash (ShardOf — the same agent lands in
	// the same shard across rounds and processes); 0 means one shard.
	// Design and respond run per shard — concurrently on a bounded pool
	// when there is real work; a lone shard instead fans its cold designs
	// and best responses out across GOMAXPROCS (Shard.Solo) — and results
	// merge in global ID order, so the ledger is byte-identical for every
	// value of Shards. Policies implementing ShardPolicy get per-shard
	// design with warm-round skipping; plain policies keep their single
	// whole-population Contracts call and shard only the respond stage.
	//
	// The Bump contract: each shard carries indexed views of Weights,
	// MaliceProb, and the design fingerprints, rebuilt under the same rule
	// as the cached agent view. With no Drift configured, a mutation of
	// weights, malice probabilities, agent parameters, or membership made
	// in place stays invisible to the engine until it is declared through
	// Population.Bump (or Touch, TouchJoin, TouchLeave); with a Drift the
	// views rebuild every round unless the hook declares a narrower scope.
	Shards int
	// Metrics, when non-nil, instruments the run: per-stage round timing
	// histograms, per-round ledger gauges (the same set TelemetryObserver
	// exports), the design cache's counters (Cache.ExportTo), and — for
	// policies implementing MetricsUser — the solver fan-out.
	// telemetry.Nop (a nil registry) leaves the run un-instrumented;
	// enabling metrics never changes the simulated ledger.
	Metrics *telemetry.Registry
}

// Engine drives the repeated Stackelberg round loop of §II over one
// population: drift → contracts → best responses → accounting → observers.
type Engine struct {
	pop       *Population
	cfg       Config
	m         *stageMetrics      // nil when Config.Metrics is unset
	telObs    *telemetryObserver // nil when Config.Metrics is unset
	agents    []*worker.Agent    // cached ID-sorted view (see roundAgents)
	agentsOK  bool
	agentsGen uint64
	outs      []AgentOutcome // Round.Outcomes backing array, reused per round
	fanErrs   []error        // per-task errors for fanOut, reused per round
	rt        roundState     // per-round pipeline state, reused per round
	stepped   int            // rounds completed through Step (not Run)

	// Drift-scope state (see beginScope): the round's consumed view rule.
	// Touched and structural IDs resolve against byID, the cached view's
	// lazily built ID index (id → view position). A structural splice
	// re-points only the moved survivor segments plus the churn — or,
	// when most of the view shifted, invalidates the index and lets the
	// next scoped round rebuild it once; a full view rebuild always
	// invalidates.
	byID          map[string]int32
	byIDOK        bool
	scope         driftScope
	scopeIDs      []string // takeScope's reusable backing slices
	scopeJoinIDs  []string
	scopeLeaveIDs []string

	// Structural-splice state (viewStructural; see prepareStructural and
	// spliceView): the resolved joiner objects in ID order, the outcome
	// slot assigned to each, and the joiner-ID set (to skip joiners in
	// the plain-touched loops).
	structJoins     []*worker.Agent
	structJoinSlots []int32
	structJoinSet   map[string]struct{}
	joinWant        map[string]int32 // scratch: joiner ID → structJoins index

	// Outcome-slot indirection for structural drift: agent i of the
	// ID-sorted view owns physical slot slots[i] of outs. fragmented is
	// false for the identity mapping (no structural splice since the last
	// full rebuild or compaction — the common case, where slots is not
	// consulted at all); once a splice runs, leavers tombstone their slot,
	// joiners take fresh tail slots ([physLen,…)), and stageRespond
	// gathers live outcomes back into ID order before settlement.
	// Compaction (maybeCompact) renumbers the slots back to identity when
	// tombstones pass the fragmentation threshold.
	fragmented bool
	slots      []int32
	physLen    int
	tombstones int
	ordered    []AgentOutcome // ID-order gather buffer / compaction double buffer
	slotRemap  []int32        // compaction scratch: old slot → new slot

	// Shard-pipeline state; see shard.go.
	shardPol  ShardPolicy // non-nil when the policy supports per-shard design
	patchPol  bool        // the policy is FingerprintPure — sparse drifts may patch slots
	shards    []shardRun
	shardPtrs []*Shard // scratch for shardAssign, aliasing shards
	shardsOK  bool
	shardsGen uint64
	viewEpoch uint64 // advances on every shard-view rebuild (Shard.Epoch)
	merged    map[string]*contract.PiecewiseLinear
	// lastDeclared/lastApplied record the previous round's drift
	// classification: the rule beginScope derived from the declared scope,
	// and the rule the round actually ran under after any escalation (a
	// scope prepareStructural refutes runs as viewFull). See
	// LastDriftClass.
	lastDeclared viewRule
	lastApplied  viewRule

	// fpCounts refcounts the live design keys across every shard view —
	// maintained eagerly at every point a fingerprint is written (full
	// rebuilds count through shardAssign; scoped refreshes and splices
	// adjust in place), never by walking the views. A key whose count
	// hits zero is dead: no agent mints it any more, so its menu-cache
	// and respond-memo entries are dropped (targeted invalidation). Weight
	// drift never moves a count. Nil when the engine has neither a design
	// cache nor a respond memo — nothing to evict, no index to keep.
	fpCounts map[DesignKey]int32
	deadKeys []DesignKey // per-refresh scratch of zero-count keys

	// Per-shard structural splice scratch (refreshShardsStructural):
	// joins/leaves grouped by owning shard (indices into structJoins and
	// scope.leaves).
	shardJoins  [][]int32
	shardLeaves [][]int32
	// Splice scratch shared by spliceView and spliceShard: the
	// binary-searched insertion index of each join, the slot index of
	// each leave, the survivor segments with their target offsets, and
	// each join's destination index. Splices run in place over the
	// retained arrays — only segments whose offset is nonzero move, so
	// clustered churn costs the shifted span, not the view length.
	msJoinPos  []int32
	msLeavePos []int32
	msJoinDst  []int32
	msSegs     []spliceSeg
}

// viewRule is one round's decision on the cached agent and shard views,
// derived from the consumed drift scope (see beginScope).
type viewRule uint8

const (
	// viewKeep retains every cached view (no declared drift; the
	// generation compare remains as the cross-engine backstop).
	viewKeep viewRule = iota
	// viewStructural applies any declared scope (Touch, TouchJoin,
	// TouchLeave, or a mix) to the cached views in place: joins and
	// leaves are spliced, touched agents refreshed. A plain Touch is the
	// case with no joins or leaves. It escalates to viewFull when the
	// declarations fail the consistency checks.
	viewStructural
	// viewFull rebuilds the agent view and every shard view from scratch.
	viewFull
)

// String names the rule for span attributes, logs, and metrics labels.
func (v viewRule) String() string {
	switch v {
	case viewKeep:
		return "viewKeep"
	case viewStructural:
		return "viewStructural"
	case viewFull:
		return "viewFull"
	}
	return "viewUnknown"
}

// driftScope is the consumed per-round drift scope.
type driftScope struct {
	// rule is the round's view rule; declared is the rule beginScope
	// derived from the declarations, before any escalation.
	rule, declared viewRule
	ids            []string // touched agent IDs (viewStructural)
	// joins/leaves are the declared structural halves, meaningful only
	// under viewStructural; prepareStructural sorts both in place.
	joins  []string
	leaves []string
}

// roundState carries one round through the pipeline's stages. The engine
// keeps a single instance and resets it per round, so the pipeline
// allocates nothing in steady state.
type roundState struct {
	r         int
	timed     bool
	agents    []*worker.Agent
	contracts map[string]*contract.PiecewiseLinear
	round     Round
	// workerUtility is the respond stage's summed accepted-agent utility,
	// folded per shard in shard order.
	workerUtility float64
	// declined and excluded count the round's declined and excluded
	// outcomes, tallied by the settle pass that already walks them.
	declined, excluded int
	// observeDur accumulates observer-dispatch time recorded outside the
	// observe stage proper (the OnContracts fan-out runs between design
	// and respond but bills to the observe histogram).
	observeDur time.Duration
	// span is the round's "engine.round" span (nil when the incoming
	// context carries none — the untraced hot path), and stageSpan the
	// currently running stage's child span, the parent for per-shard
	// spans. Both are nil-safe throughout.
	span      *spans.Span
	stageSpan *spans.Span
}

// stage is one step of the engine's round pipeline. Stages run in order;
// instrumented engines observe each stage's duration into its histogram.
type stage struct {
	name string
	// spanName is the stage's span name, precomputed so traced rounds do
	// no per-stage string building.
	spanName string
	// hist selects the stage's histogram (nil for fold/final stages).
	hist func(*stageMetrics) *telemetry.Histogram
	// fold accumulates the stage's duration into roundState.observeDur
	// instead of observing a histogram (the OnContracts dispatch).
	fold bool
	// final marks the observe stage: its duration (plus the folded
	// observer time) and the whole round's duration are observed even
	// when the stage errors — a stopped round was still a full round.
	final bool
	run   func(*Engine, context.Context, *roundState) error
}

// roundPipeline is the engine's round body: contract design, OnContracts
// dispatch, worker best responses, outcome settlement (Eq. (7)), observer
// dispatch. Design and respond run per shard (see shard.go); an engine
// with Config.Shards = 0 runs the same stages over one shard.
var roundPipeline = [...]stage{
	{name: "design", spanName: "engine.stage.design", hist: func(m *stageMetrics) *telemetry.Histogram { return m.design }, run: (*Engine).stageDesign},
	{name: "contracts", spanName: "engine.stage.contracts", fold: true, run: (*Engine).stageContracts},
	{name: "respond", spanName: "engine.stage.respond", hist: func(m *stageMetrics) *telemetry.Histogram { return m.respond }, run: (*Engine).stageRespond},
	{name: "settle", spanName: "engine.stage.settle", hist: func(m *stageMetrics) *telemetry.Histogram { return m.settle }, run: (*Engine).stageSettle},
	{name: "observe", spanName: "engine.stage.observe", final: true, run: (*Engine).stageObserve},
}

// New validates the population and configuration and wires the cache and
// metrics registry into the policy when supported.
func New(pop *Population, cfg Config) (*Engine, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("nil policy: %w", ErrBadConfig)
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("rounds=%d must be positive: %w", cfg.Rounds, ErrBadConfig)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shards=%d must be >= 0: %w", cfg.Shards, ErrBadConfig)
	}
	if err := pop.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		if cu, ok := cfg.Policy.(CacheUser); ok {
			cu.UseCache(cfg.Cache)
		}
	}
	cfg.Shards = max(cfg.Shards, 1) // 0 runs the one pipeline as one shard
	e := &Engine{pop: pop, cfg: cfg}
	if sp, ok := cfg.Policy.(ShardPolicy); ok {
		e.shardPol = sp
		_, e.patchPol = cfg.Policy.(FingerprintPurePolicy)
	}
	if cfg.Metrics != nil {
		if mu, ok := cfg.Policy.(MetricsUser); ok {
			mu.UseMetrics(cfg.Metrics)
		}
		if cfg.Cache != nil {
			cfg.Cache.ExportTo(cfg.Metrics)
		}
		if cfg.Memo != nil {
			cfg.Memo.ExportTo(cfg.Metrics)
		}
		e.m = newStageMetrics(cfg.Metrics)
		// Ledger metrics are exported directly in Run rather than by
		// stacking TelemetryObserver into Observers: the per-agent
		// OnOutcome dispatch loop stays exactly as long as the caller made
		// it, which keeps instrumentation overhead off the hot path. The
		// export happens before user observers fire, so a per-round
		// metrics flush reads the registry already updated for the round.
		e.telObs = newTelemetryObserver(cfg.Metrics)
	}
	return e, nil
}

// CacheStats snapshots the configured cache's counters (zero when no cache
// was configured).
func (e *Engine) CacheStats() CacheStats {
	if e.cfg.Cache == nil {
		return CacheStats{}
	}
	return e.cfg.Cache.Stats()
}

// RespondStats snapshots the configured respond memo's counters (zero
// when no memo was configured).
func (e *Engine) RespondStats() RespondStats {
	if e.cfg.Memo == nil {
		return RespondStats{}
	}
	return e.cfg.Memo.Stats()
}

// Run executes the configured number of rounds, streaming events to the
// observers. It returns nil on completion or clean ErrStop, and the first
// error otherwise (context cancellation, policy/design failure, a drift
// that broke the population, or an observer error).
//
// Each round walks the stage pipeline — contract design, worker
// best-response, outcome settlement, observer dispatch — and when
// Config.Metrics is set each stage's duration is observed into its
// _seconds histogram (observer dispatch on either side of respond bills
// to the observe histogram). The observable event order is the same for
// every shard count: OnContracts, then one OnOutcome per agent in ID
// order, then OnRoundEnd.
func (e *Engine) Run(ctx context.Context) error {
	for r := 0; r < e.cfg.Rounds; r++ {
		if err := e.runRound(ctx, r); err != nil {
			if errors.Is(err, ErrStop) {
				return nil
			}
			return err
		}
	}
	return nil
}

// Step executes exactly one round — drift, design, respond, settle,
// observe — using the engine's own step counter as the round index, and
// advances the counter when the round completes. It is the entry point
// for long-lived callers (servers, interactive drivers) that advance a
// session on demand instead of running a fixed horizon; Config.Rounds is
// ignored by Step (it must still validate as positive).
//
// Unlike Run, Step returns ErrStop verbatim when an observer requests a
// stop — the caller owns the loop, so it also owns the decision. A failed
// round (context cancellation, design error) does not advance the counter
// and leaves no trace in the ledger, so retrying is safe. Mixing Run and
// Step on one engine is not supported: Run always restarts from round 0.
//
// Step is not safe for concurrent use — serialize calls through a single
// writer, as internal/server does.
func (e *Engine) Step(ctx context.Context) error {
	err := e.runRound(ctx, e.stepped)
	if err == nil || errors.Is(err, ErrStop) {
		e.stepped++
	}
	return err
}

// Stepped returns the number of rounds completed through Step.
func (e *Engine) Stepped() int { return e.stepped }

// SetStepped sets the step counter so the next Step runs round n. It
// exists for session recovery: a journal snapshot restores a population
// and a ledger of n completed rounds into a fresh engine, and replayed
// or newly served rounds must continue the index sequence — ledger
// determinism across cold and warm engines does the rest. Negative n is
// clamped to 0. Call it before the first Step, never mid-run.
func (e *Engine) SetStepped(n int) {
	if n < 0 {
		n = 0
	}
	e.stepped = n
}

// runRound executes one round of the stage pipeline. ErrStop from an
// observer is returned verbatim; callers decide whether it ends the run.
func (e *Engine) runRound(ctx context.Context, r int) error {
	timed := e.m != nil
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("engine: round %d: %w", r, err)
	}
	if e.cfg.Drift != nil {
		e.cfg.Drift(r, e.pop)
	}
	e.beginScope()
	// A declared scope resolves its touched IDs, joins, and leaves against
	// the retained view up front; declarations that fail the consistency
	// checks demote the round to the classic full rebuild.
	if e.scope.rule == viewStructural {
		if !e.prepareStructural() {
			e.scope.rule = viewFull
		} else if e.m != nil {
			e.m.driftTouched.Add(uint64(len(e.scope.ids)))
			e.m.driftJoins.Add(uint64(len(e.scope.joins)))
			e.m.driftLeaves.Add(uint64(len(e.scope.leaves)))
		}
	}
	if e.cfg.Drift != nil {
		// Scope-aware revalidation: a declared scope re-checks the joiners
		// plus the touched agents; anything else (Bump, undeclared or
		// refuted declarations) re-checks everything.
		var err error
		if e.scope.rule == viewStructural {
			err = e.validateStructural()
		} else {
			err = e.pop.Validate()
		}
		if err != nil {
			return fmt.Errorf("engine: drift broke population at round %d: %w", r, err)
		}
	}

	e.rt = roundState{r: r, timed: timed}
	st := &e.rt
	// Traced rounds hang an "engine.round" span with one child per stage
	// off the caller's span; the untraced path pays one context lookup
	// and nil branches — no allocation, so the warm-round zero-alloc pin
	// holds.
	if parent := spans.FromContext(ctx); parent != nil {
		st.span = parent.StartChild("engine.round")
		st.span.SetInt("round", int64(r))
		ctx = spans.ContextWith(ctx, st.span)
		defer e.endRoundSpan(st)
	}
	var roundTimer telemetry.Timer
	if timed {
		roundTimer = telemetry.StartTimer()
	}
	for si := range roundPipeline {
		sg := &roundPipeline[si]
		var stageTimer telemetry.Timer
		if timed {
			stageTimer = telemetry.StartTimer()
		}
		if st.span != nil {
			st.stageSpan = st.span.StartChild(sg.spanName)
		}
		err := sg.run(e, ctx, st)
		if st.stageSpan != nil {
			st.stageSpan.End()
			st.stageSpan = nil
		}
		if timed && (err == nil || sg.final) {
			d := stageTimer.Elapsed()
			switch {
			case sg.fold:
				st.observeDur += d
			case sg.final:
				e.m.observe.Observe((d + st.observeDur).Seconds())
				e.m.round.Observe(roundTimer.Seconds())
			default:
				sg.hist(e.m).Observe(d.Seconds())
			}
		}
		if err != nil {
			return err
		}
	}
	e.lastDeclared, e.lastApplied = e.scope.declared, e.scope.rule
	return nil
}

// endRoundSpan finishes a traced round's span with the round's summary
// attributes: the drift classification the round ran under (after any
// escalation), the agent count, and the shard count.
func (e *Engine) endRoundSpan(st *roundState) {
	st.span.SetAttr("drift.declared", e.scope.declared.String())
	st.span.SetAttr("drift", e.scope.rule.String())
	st.span.SetInt("agents", int64(len(st.agents)))
	st.span.SetInt("shards", int64(len(e.shards)))
	st.span.End()
}

// LastDriftClass reports the previous successful round's drift
// classification: the rule derived from the declared scope and the rule
// the round actually applied — they differ exactly when a declared scope
// escalated to the full rebuild (declarations the retained view refuted,
// or no view to apply them to yet). The serving layer logs that
// escalation; traced rounds carry both values as span attributes.
func (e *Engine) LastDriftClass() (declared, applied string) {
	return e.lastDeclared.String(), e.lastApplied.String()
}

// stageContracts dispatches OnContracts. (On the ShardPolicy route with
// no observers the merged map is never built and st.contracts is nil.)
func (e *Engine) stageContracts(_ context.Context, st *roundState) error {
	for _, ob := range e.cfg.Observers {
		ob.OnContracts(st.r, st.contracts)
	}
	return nil
}

// stageRespond computes worker best responses into the reused outcomes
// backing array; observers that retain it past their callback (as Ledger
// does) must copy. Under a fragmented slot mapping (structural drift)
// responds write to physical slots and the live outcomes are gathered
// back into ID order before settlement; with the identity mapping the
// backing array is already in ID order.
func (e *Engine) stageRespond(ctx context.Context, st *roundState) error {
	agents := st.agents
	phys := len(agents)
	if e.fragmented {
		phys = e.physLen
	}
	if cap(e.outs) < phys {
		// Grow with copy: every retained outcome keeps its physical slot
		// (joiners take fresh tail slots), so shard warm state survives
		// the reallocation.
		newCap := phys
		if c := 2 * cap(e.outs); c > newCap {
			newCap = c
		}
		grown := make([]AgentOutcome, newCap)
		copy(grown, e.outs)
		e.outs = grown
	}
	st.round = Round{Index: st.r, Outcomes: e.outs[:phys]}
	wu, err := e.respondShards(ctx, st)
	if err != nil {
		return err
	}
	st.workerUtility = wu
	if e.fragmented {
		st.round.Outcomes = e.gatherOutcomes(len(agents))
	}
	return nil
}

// gatherOutcomes copies the live outcomes — physical slots indexed
// through the slot mapping — into the reused ID-order buffer, restoring
// the Round.Outcomes contract (ordered by agent ID, tombstones skipped).
func (e *Engine) gatherOutcomes(n int) []AgentOutcome {
	if cap(e.ordered) < n {
		e.ordered = make([]AgentOutcome, n)
	}
	ord := e.ordered[:n]
	// The slot mapping is identity runs broken only at splice points, so
	// each run of consecutive physical slots copies wholesale.
	for i := 0; i < n; {
		s := int(e.slots[i])
		j := i + 1
		for j < n && int(e.slots[j]) == s+(j-i) {
			j++
		}
		copy(ord[i:j], e.outs[s:s+(j-i)])
		i = j
	}
	return ord
}

// stageSettle runs the Eq. (7) accounting — always one sequential pass in
// global ID order, so every shard count sums bit-identically.
func (e *Engine) stageSettle(_ context.Context, st *roundState) error {
	round := &st.round
	for i := range round.Outcomes {
		oc := &round.Outcomes[i]
		if oc.Excluded || oc.Declined {
			if oc.Declined {
				st.declined++
			}
			if oc.Excluded {
				st.excluded++
			}
			continue
		}
		round.Benefit += oc.Weight * oc.Feedback
		round.Cost += oc.Compensation
	}
	round.Utility = round.Benefit - e.pop.Mu*round.Cost
	if st.timed {
		e.m.workerUtility.Set(st.workerUtility)
	}
	return nil
}

// stageObserve dispatches per-agent outcomes and the round end. The
// registry export runs first so observers that read Config.Metrics (e.g.
// a per-round JSONL flush) see the completed round's values.
func (e *Engine) stageObserve(_ context.Context, st *roundState) error {
	if st.timed {
		e.telObs.record(st.round, st.declined, st.excluded)
	}
	for i := range st.round.Outcomes {
		for _, ob := range e.cfg.Observers {
			ob.OnOutcome(st.r, st.round.Outcomes[i])
		}
	}
	for _, ob := range e.cfg.Observers {
		if err := ob.OnRoundEnd(st.round); err != nil {
			return err
		}
	}
	return nil
}

// beginScope consumes the population's accumulated drift scope into the
// round's view rule, recording it as the declared rule before any
// escalation. The split:
//
//   - a declared scope (Touch, TouchJoin, TouchLeave, or a mix) splices
//     joins and leaves into the views in place and refreshes only touched
//     state;
//   - a declared full scope (Bump) rebuilds everything;
//   - no declaration under a Drift hook keeps the legacy contract — the
//     hook may have mutated anything, so every view rebuilds;
//   - no declaration and no hook keeps the cached views, with the
//     generation compare in roundAgents/ensureShards as the backstop for
//     populations shared with another consumer.
func (e *Engine) beginScope() {
	ids, joins, leaves, all, pending := e.pop.takeScope(e.scopeIDs, e.scopeJoinIDs, e.scopeLeaveIDs)
	e.scopeIDs, e.scopeJoinIDs, e.scopeLeaveIDs = ids, joins, leaves
	switch {
	case pending && all:
		e.scope = driftScope{rule: viewFull}
	case pending:
		// Counters are deferred to runRound: a scope that fails
		// prepareStructural escalates to viewFull and counts nothing.
		e.scope = driftScope{rule: viewStructural, ids: ids, joins: joins, leaves: leaves}
	case e.cfg.Drift != nil:
		e.scope = driftScope{rule: viewFull}
	default:
		e.scope = driftScope{rule: viewKeep}
	}
	e.scope.declared = e.scope.rule
}

// roundAgents returns the ID-ordered agent view. The cached view is kept
// under viewKeep with an unmoved generation. Under viewStructural
// (validated by prepareStructural before the stages ran) declared joins
// and leaves splice the cached view in place; touched agents mutate in
// place through the retained pointers, so a scope with no joins or
// leaves keeps the view as it is. Every other round rebuilds here as
// viewFull, which cascades into ensureShards.
func (e *Engine) roundAgents() []*worker.Agent {
	gen := e.pop.Generation()
	if e.agentsOK {
		switch e.scope.rule {
		case viewKeep:
			if e.agentsGen == gen {
				return e.agents
			}
		case viewStructural:
			if len(e.scope.joins)+len(e.scope.leaves) > 0 {
				e.spliceView()
			}
			e.agentsGen = gen
			return e.agents
		}
	}
	e.scope.rule = viewFull
	e.agents = append(e.agents[:0], e.pop.Agents...)
	sort.Slice(e.agents, func(i, j int) bool { return e.agents[i].ID < e.agents[j].ID })
	e.agentsOK = true
	e.agentsGen = gen
	e.byIDOK = false
	return e.agents
}

// ensureByID (re)builds the ID index over the cached agent view. Lazy:
// full-rebuild rounds never touch it, scoped rounds build it once and
// structural splices keep it current in place (see the field comment).
func (e *Engine) ensureByID() {
	if e.byIDOK {
		return
	}
	if e.byID == nil {
		e.byID = make(map[string]int32, len(e.agents))
	} else {
		clear(e.byID)
	}
	for i, a := range e.agents {
		e.byID[a.ID] = int32(i)
	}
	e.byIDOK = true
}

// searchAgents binary-searches the ID-sorted agents for id: its position
// (the splice insertion point when absent) and whether it is present.
func searchAgents(agents []*worker.Agent, id string) (int, bool) {
	return slices.BinarySearchFunc(agents, id, func(a *worker.Agent, id string) int {
		return strings.Compare(a.ID, id)
	})
}

// prepareStructural resolves a declared scope against the retained view:
// it sorts the join/leave declarations, runs the consistency checks the
// engine can afford without an O(population) pass, and resolves each
// joiner ID to its agent object. It reports false — and the caller
// escalates the round to viewFull — when the scope cannot be applied in
// place: no retained view yet, an ID declared both joined and left
// (ambiguous against a view that only sees the endpoints), a joiner
// already in the view, a leaver missing from it, a joiner that does not
// resolve in Population.Agents, a plain-touched ID resolving nowhere, or
// a population length that disagrees with the declarations (an
// undeclared add or removal). Declarations the checks cannot refute are
// trusted: an inaccurate scope is the caller's bug.
func (e *Engine) prepareStructural() bool {
	if !e.agentsOK {
		return false
	}
	joins, leaves := e.scope.joins, e.scope.leaves
	sort.Strings(joins)
	sort.Strings(leaves)
	if len(e.pop.Agents) != len(e.agents)+len(joins)-len(leaves) {
		return false
	}
	for ji, li := 0, 0; ji < len(joins) && li < len(leaves); {
		switch {
		case joins[ji] == leaves[li]:
			return false
		case joins[ji] < leaves[li]:
			ji++
		default:
			li++
		}
	}
	e.ensureByID()
	for _, id := range leaves {
		if _, ok := e.byID[id]; !ok {
			return false
		}
	}
	if e.structJoinSet == nil {
		e.structJoinSet = make(map[string]struct{}, len(joins))
	} else {
		clear(e.structJoinSet)
	}
	if e.joinWant == nil {
		e.joinWant = make(map[string]int32, len(joins))
	} else {
		clear(e.joinWant)
	}
	e.structJoins = e.structJoins[:0]
	for k, id := range joins {
		if _, ok := e.byID[id]; ok {
			return false
		}
		e.structJoinSet[id] = struct{}{}
		e.joinWant[id] = int32(k)
		e.structJoins = append(e.structJoins, nil)
	}
	// Joiners are appended in practice, so the reverse scan usually stops
	// after a handful of steps rather than walking the whole population.
	found := 0
	for i := len(e.pop.Agents) - 1; i >= 0 && found < len(joins); i-- {
		a := e.pop.Agents[i]
		if a == nil {
			return false
		}
		if k, ok := e.joinWant[a.ID]; ok && e.structJoins[k] == nil {
			e.structJoins[k] = a
			found++
		}
	}
	if found != len(joins) {
		return false
	}
	for _, id := range e.scope.ids {
		if _, ok := e.structJoinSet[id]; ok {
			continue
		}
		if _, ok := e.byID[id]; !ok {
			return false
		}
	}
	return true
}

// spliceSeg is one contiguous run of surviving elements in an in-place
// structural splice: n elements starting at src in the old layout that
// land at dst in the new one.
type spliceSeg struct {
	src, dst, n int32
}

// buildSpliceSegs walks the resolved join and leave positions in merge
// order (both ID-sorted, join first on a tie, matching the old view's
// total order) and appends the survivor segments to segs and each join's
// destination index in the new layout to jdst. Segments whose offset is
// zero never move, so clustered churn costs only the shifted span.
func buildSpliceSegs(segs []spliceSeg, jdst []int32, jpos, lpos []int32, n int) ([]spliceSeg, []int32) {
	src, shift := 0, 0
	emit := func(end int) {
		if end > src {
			segs = append(segs, spliceSeg{src: int32(src), dst: int32(src + shift), n: int32(end - src)})
		}
		src = end
	}
	ji, li := 0, 0
	for ji < len(jpos) || li < len(lpos) {
		jp, lp := n+1, n+1
		if ji < len(jpos) {
			jp = int(jpos[ji])
		}
		if li < len(lpos) {
			lp = int(lpos[li])
		}
		if jp <= lp {
			emit(jp)
			jdst = append(jdst, int32(jp+shift))
			shift++
			ji++
		} else {
			emit(lp)
			src = lp + 1
			shift--
			li++
		}
	}
	emit(n)
	return segs, jdst
}

// spliceMove applies the survivor segments to buf in place: left-moving
// segments run left to right and right-moving ones right to left. Final
// destinations are disjoint and ordered, so neither pass can overwrite a
// source that has not been consumed yet, and zero-offset segments cost
// nothing. The caller grows buf to the larger of the old and new lengths
// before moving and truncates after.
func spliceMove[T any](buf []T, segs []spliceSeg) {
	for _, s := range segs {
		if s.dst < s.src {
			copy(buf[s.dst:s.dst+s.n], buf[s.src:s.src+s.n])
		}
	}
	for i := len(segs) - 1; i >= 0; i-- {
		if s := segs[i]; s.dst > s.src {
			copy(buf[s.dst:s.dst+s.n], buf[s.src:s.src+s.n])
		}
	}
}

// grown returns buf extended to length n with zero values (its length
// never shrinks here; splices truncate after the moves).
func grown[T any](buf []T, n int) []T {
	var zero T
	for len(buf) < n {
		buf = append(buf, zero)
	}
	return buf
}

// spliceView applies the round's resolved structural scope to the cached
// ID-sorted view in place: survivor segments between the ID-sorted splice
// points shift by their cumulative join/leave offset (most never move),
// then each joiner lands at its final index. The outcome-slot indirection
// updates alongside: every surviving agent keeps its physical slot, each
// leaver's slot becomes a tombstone, and each joiner takes a fresh tail
// slot (recorded in structJoinSlots for the shard splice); compaction is
// deferred to maybeCompact.
func (e *Engine) spliceView() {
	joins, leaves := e.structJoins, e.scope.leaves
	if !e.fragmented {
		n := len(e.agents)
		if cap(e.slots) < n {
			e.slots = make([]int32, n)
		}
		e.slots = e.slots[:n]
		for i := range e.slots {
			e.slots[i] = int32(i)
		}
		e.physLen = n
		e.tombstones = 0
		e.fragmented = true
	}
	if cap(e.structJoinSlots) < len(joins) {
		e.structJoinSlots = make([]int32, len(joins))
	}
	e.structJoinSlots = e.structJoinSlots[:len(joins)]
	// Resolve every splice position up front — joins and leaves arrive
	// ID-sorted, so their positions are non-decreasing and the merge
	// reduces to contiguous survivor segments.
	jpos := e.msJoinPos[:0]
	for _, a := range joins {
		j, _ := searchAgents(e.agents, a.ID)
		jpos = append(jpos, int32(j))
	}
	lpos := e.msLeavePos[:0]
	for _, id := range leaves {
		j, _ := searchAgents(e.agents, id) // resolved by prepareStructural
		lpos = append(lpos, int32(j))
	}
	segs, jdst := buildSpliceSegs(e.msSegs[:0], e.msJoinDst[:0], jpos, lpos, len(e.agents))

	nOld := len(e.agents)
	nNew := nOld + len(joins) - len(leaves)
	e.agents = grown(e.agents, nNew)
	e.slots = grown(e.slots, nNew)
	spliceMove(e.agents, segs)
	spliceMove(e.slots, segs)
	for k, a := range joins {
		d := jdst[k]
		e.agents[d] = a
		e.structJoinSlots[k] = int32(e.physLen)
		e.slots[d] = int32(e.physLen)
		e.physLen++
	}
	if nNew < len(e.agents) {
		for i := nNew; i < len(e.agents); i++ {
			e.agents[i] = nil // release the pointer tail
		}
		e.agents = e.agents[:nNew]
	}
	e.slots = e.slots[:nNew]
	e.tombstones += len(leaves)
	// Keep the ID index current: only the moved survivor segments change
	// position, so the edit is O(moved span + churn). A splice that
	// shifted most of the view (scattered churn) invalidates the index
	// instead — one lazy rebuild beats re-hashing nearly every ID here.
	if e.byIDOK {
		moved := len(joins)
		for _, s := range segs {
			if s.dst != s.src {
				moved += int(s.n)
			}
		}
		if moved*4 > nNew {
			e.byIDOK = false
		} else {
			for _, id := range leaves {
				delete(e.byID, id)
			}
			for _, s := range segs {
				if s.dst == s.src {
					continue
				}
				for i := s.dst; i < s.dst+s.n; i++ {
					e.byID[e.agents[i].ID] = i
				}
			}
			for k, a := range joins {
				e.byID[a.ID] = jdst[k]
			}
		}
	}
	e.msJoinPos, e.msLeavePos, e.msSegs, e.msJoinDst = jpos, lpos, segs, jdst
}

// validateAgent is the per-agent slice of Population.Validate: agent
// parameters, weight presence and finiteness, malice range.
func (e *Engine) validateAgent(a *worker.Agent) error {
	p := e.pop
	if err := a.Validate(p.Part.YMax()); err != nil {
		return err
	}
	w, ok := p.Weights[a.ID]
	if !ok {
		return fmt.Errorf("agent %q has no weight: %w", a.ID, ErrBadPopulation)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("agent %q weight=%v: %w", a.ID, w, ErrBadPopulation)
	}
	if mp, ok := p.MaliceProb[a.ID]; ok && !(mp >= 0 && mp <= 1) {
		return fmt.Errorf("agent %q malice probability=%v: %w", a.ID, mp, ErrBadPopulation)
	}
	return nil
}

// validateStructural re-checks what a declared scope can have changed:
// the scalar Mu, every joiner in full, and every plain-touched agent
// still present. The remaining Validate invariants (membership,
// duplicates, orphan map entries) move only through the declared joins
// and leaves prepareStructural cross-checked, so the O(population) pass
// is skipped. Leavers are skipped — their map entries left with them —
// and a touched ID that is also a joiner is covered by the joiner pass.
// Runs before the splice, so plain-touched IDs resolve against the
// pre-splice view.
func (e *Engine) validateStructural() error {
	p := e.pop
	if !(p.Mu > 0) || math.IsInf(p.Mu, 0) {
		return fmt.Errorf("mu=%v: %w", p.Mu, ErrBadPopulation)
	}
	for _, a := range e.structJoins {
		if err := e.validateAgent(a); err != nil {
			return err
		}
	}
	for _, id := range e.scope.ids {
		if _, ok := e.structJoinSet[id]; ok {
			continue
		}
		if leavesHave(e.scope.leaves, id) {
			continue
		}
		if err := e.validateAgent(e.agents[e.byID[id]]); err != nil {
			return err
		}
	}
	return nil
}

// leavesHave reports whether the sorted leave declarations contain id.
func leavesHave(leaves []string, id string) bool {
	i := sort.SearchStrings(leaves, id)
	return i < len(leaves) && leaves[i] == id
}

// RunLedger runs a configured engine to completion and returns the
// accumulated per-round ledger — the convenience path for callers that
// want the classic []Round result. On error the rounds completed so far
// are returned alongside it.
func RunLedger(ctx context.Context, pop *Population, cfg Config) ([]Round, error) {
	led := &Ledger{Rounds: make([]Round, 0, cfg.Rounds)}
	cfg.Observers = append(append([]Observer(nil), cfg.Observers...), led)
	e, err := New(pop, cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Run(ctx); err != nil {
		return led.Rounds, err
	}
	return led.Rounds, nil
}
