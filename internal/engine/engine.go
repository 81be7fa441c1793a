package engine

import (
	"context"
	"errors"
	"fmt"
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
// care about one should embed Hooks or leave the other empty; each round
// fires OnContracts, then OnRoundEnd with every agent's outcome in ID
// order.
//
// Observers let callers stream instead of accumulating ledgers: a
// million-round run with a streaming observer holds one Round in memory.
//
// The per-ID contract map OnContracts receives is built for observers
// only, so an observer may say per round whether it wants it by also
// implementing ContractsWanter. An observer that does not implement it
// wants the map every round, and gets it.
type Observer interface {
	// OnContracts fires after the policy posts the round's contracts. The
	// map is the engine's working copy — treat it as read-only and valid
	// only for the duration of the callback (policies reuse it across
	// rounds); copy it to retain it. It is nil in a round no observer
	// wants it (see ContractsWanter).
	OnContracts(round int, contracts map[string]*contract.PiecewiseLinear)
	// OnRoundEnd fires with the completed round, whose Outcomes hold
	// every agent's outcome in agent-ID order. Returning ErrStop ends the
	// run cleanly; any other error aborts it.
	OnRoundEnd(round Round) error
}

// ContractsWanter is an Observer that says, before each round's design,
// whether its OnContracts needs the round's per-ID contract map. When no
// observer of a round wants it, every observer gets nil, and on the
// indexed-view route the engine builds no map (one entry per agent) and
// drops the one it kept; the next round that wants it rebuilds it from
// the dense slots.
type ContractsWanter interface {
	WantsContracts(round int) bool
}

// Hooks adapts optional funcs into an Observer; nil funcs are skipped.
type Hooks struct {
	Contracts func(round int, contracts map[string]*contract.PiecewiseLinear)
	RoundEnd  func(round Round) error
}

var (
	_ Observer        = Hooks{}
	_ ContractsWanter = Hooks{}
)

// WantsContracts implements ContractsWanter: the map is wanted exactly
// when Contracts is set.
func (h Hooks) WantsContracts(int) bool { return h.Contracts != nil }

// OnContracts implements Observer.
func (h Hooks) OnContracts(round int, contracts map[string]*contract.PiecewiseLinear) {
	if h.Contracts != nil {
		h.Contracts(round, contracts)
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

var (
	_ Observer        = (*Ledger)(nil)
	_ ContractsWanter = (*Ledger)(nil)
)

// WantsContracts implements ContractsWanter: a ledger keeps outcomes, not
// contracts.
func (l *Ledger) WantsContracts(int) bool { return false }

// OnContracts implements Observer.
func (l *Ledger) OnContracts(int, map[string]*contract.PiecewiseLinear) {}

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
	// Shards is ignored: the engine runs one round pipeline over its view
	// and parallelizes cold menu builds and best responses across
	// GOMAXPROCS. It is kept only because perfbench sets it; it goes with
	// perfbench's next change (ROADMAP item 2).
	Shards int
	// Metrics, when non-nil, instruments the run: per-stage round timing
	// histograms, per-round ledger gauges (the same set TelemetryObserver
	// exports), the design cache's and respond memo's counters (published
	// at every round end), and — for
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
	outs      []AgentOutcome // Round.Outcomes backing array, aligned with agents
	fanErrs   []error        // per-task errors for fanOut, reused per round
	rt        roundState     // per-round pipeline state, reused per round
	stepped   int            // rounds completed through Step (not Run)

	// Drift-scope state (see beginScope): the round's consumed view rule.
	// A touched ID resolves through the population's ID index
	// (Population.Lookup) and viewOf, a table from population position to
	// view position. Entries are hints: each hit is confirmed by a pointer
	// compare, and a stale one (a splice shifted the view, a Remove moved
	// the agent, a rebuild re-sorted everything) heals with one binary
	// search of the view. The engine keeps no ID map of its own.
	viewOf        []int32
	scope         driftScope
	scopeIDs      []string // takeScope's reusable backing slices
	scopeJoinIDs  []string
	scopeLeaveIDs []string

	// Structural-splice state (viewStructural; see prepareStructural and
	// spliceView): the resolved joiner objects in ID order, the pre-splice
	// view position of each joiner (its insertion point) and leaver, each
	// joiner's post-splice view position, the view splice's survivor
	// segments, and the view position of each declared touched ID (-1 for
	// joiners and leavers, which the plain-touched loops skip) — pre-splice
	// until spliceView shifts it through the segments.
	structJoins []*worker.Agent
	joinPos     []int32
	leavePos    []int32
	joinDst     []int32
	viewSegs    []spliceSeg
	touchPos    []int32
	scopeAgents []*worker.Agent // validateStructural's scratch

	// Design and respond state; see view.go.
	viewPol ViewPolicy // non-nil when the policy designs over the indexed view
	// view is the policy's view: Agents aliases agents, and the columns,
	// contracts and wuSlots are aligned with it.
	view      View
	contracts []*contract.PiecewiseLinear // the round's contract slots, which respond reads
	rs        respondScratch
	// outsOK records that the outcome buffer already holds this round's
	// outcomes for the current contracts — set after a respond without
	// a Responder, cleared whenever the view, the contracts, or the buffer
	// change. A round with outsOK and no dirty slot skips respond.
	outsOK bool
	// changed is ViewContracts' report for the current round.
	changed bool
	// wu is the summed worker utility of the last respond, and wuSlots its
	// per-agent breakdown, so the patch route can refresh single slots and
	// re-fold the sum exactly.
	wu      float64
	wuSlots []float64
	// dirty lists view slots patched in place by the sparse-drift route
	// (contract already rewritten from the design cache): respond
	// recomputes exactly these outcomes while outsOK keeps the rest.
	dirty []int32
	// merged is the observer-facing per-ID contract map, kept across
	// rounds that want it and dropped in a round none does.
	merged map[string]*contract.PiecewiseLinear
	// lastDeclared/lastApplied record the previous round's drift
	// classification: the rule beginScope derived from the declared scope,
	// and the rule the round actually ran under after any escalation (a
	// scope prepareStructural refutes runs as viewFull). See
	// LastDriftClass.
	lastDeclared viewRule
	lastApplied  viewRule

	// keys interns the design keys the view holds (View.Keys),
	// refcounted; see keyTable. A key whose last holder drifts away or
	// leaves is dead: its menu-cache and respond-memo entries are dropped
	// (targeted invalidation).
	keys     keyTable
	deadKeys []DesignKey // removeDeadKeys' scratch
}

// viewRule is one round's decision on the cached view,
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
	// viewFull rebuilds the view from scratch.
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
	r      int
	timed  bool
	agents []*worker.Agent
	// contracts is the per-ID map OnContracts receives; respond reads
	// the engine's contract slots instead.
	contracts map[string]*contract.PiecewiseLinear
	// wantContracts records that some observer wants the per-ID map
	// this round (see ContractsWanter).
	wantContracts bool
	round         Round
	// workerUtility is the respond stage's summed accepted-agent utility.
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
	// currently running stage's child span, which the design and respond
	// stages annotate. Both are nil-safe throughout.
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
// dispatch. Design and respond run once over the indexed view (see
// view.go).
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
	if err := pop.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cache != nil {
		if cu, ok := cfg.Policy.(CacheUser); ok {
			cu.UseCache(cfg.Cache)
		}
	}
	e := &Engine{pop: pop, cfg: cfg}
	e.viewPol, _ = cfg.Policy.(ViewPolicy)
	if cfg.Metrics != nil {
		if mu, ok := cfg.Policy.(MetricsUser); ok {
			mu.UseMetrics(cfg.Metrics)
		}
		e.m = newStageMetrics(cfg.Metrics)
		// Ledger metrics are exported directly in Run rather than by
		// stacking TelemetryObserver into Observers, from the declined
		// and excluded counts the settle pass already tallied. The export
		// happens before user observers fire, so a per-round metrics
		// flush reads the registry already updated for the round.
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
// to the observe histogram). The observable event order is OnContracts,
// then OnRoundEnd with the round's outcomes in ID order. When Run
// returns, the cache and memo retire from Config.Metrics: their entries
// leave the _entries gauges, which sum only what live engines and
// designers hold.
func (e *Engine) Run(ctx context.Context) error {
	defer func() {
		e.cfg.Cache.retire(e.cfg.Metrics)
		e.cfg.Memo.retire(e.cfg.Metrics)
	}()
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
// escalation) and the agent count.
func (e *Engine) endRoundSpan(st *roundState) {
	st.span.SetAttr("drift.declared", e.scope.declared.String())
	st.span.SetAttr("drift", e.scope.rule.String())
	st.span.SetInt("agents", int64(len(st.agents)))
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

// stageContracts dispatches OnContracts: the round's map, or nil when no
// observer wants it. (On the ViewPolicy route the per-ID map is built
// only when some observer wants it.)
func (e *Engine) stageContracts(_ context.Context, st *roundState) error {
	m := st.contracts
	if !st.wantContracts {
		m = nil
	}
	for _, ob := range e.cfg.Observers {
		ob.OnContracts(st.r, m)
	}
	return nil
}

// wantsContracts reports whether some observer wants round r's per-ID
// contract map; an observer that is no ContractsWanter always does.
func (e *Engine) wantsContracts(r int) bool {
	for _, ob := range e.cfg.Observers {
		if cw, ok := ob.(ContractsWanter); !ok || cw.WantsContracts(r) {
			return true
		}
	}
	return false
}

// stageRespond computes worker best responses into the reused outcomes
// backing array, which holds each agent's outcome at its view position —
// already ID order; observers that retain it past their callback (as
// Ledger does) must copy.
func (e *Engine) stageRespond(ctx context.Context, st *roundState) error {
	st.round = Round{Index: st.r, Outcomes: e.outs}
	wu, err := e.respond(ctx, st)
	if err != nil {
		return err
	}
	st.workerUtility = wu
	return nil
}

// stageSettle runs the Eq. (7) accounting — always one sequential pass in
// ID order, so the sums never depend on how the respond stage ran.
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

// stageObserve dispatches the round end. The registry export (with the
// cache and memo publish) runs first so observers that read
// Config.Metrics (e.g. a per-round JSONL flush) see the completed round's
// values.
func (e *Engine) stageObserve(_ context.Context, st *roundState) error {
	if st.timed {
		e.telObs.record(st.round, st.declined, st.excluded)
		e.cfg.Cache.publish(e.cfg.Metrics)
		e.cfg.Memo.publish(e.cfg.Metrics)
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
//   - no declaration and no hook keeps the cached view, with the
//     generation compare in ensureView as the backstop for populations
//     shared with another consumer.
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

// ensureView resolves the round's ID-ordered view — the agents, the
// outcome buffer exactly as long, and the policy's indexed columns — and
// reports whether it rebuilt it. The cached view is kept under viewKeep
// with an unmoved generation. Under viewStructural (validated by
// prepareStructural before the stages ran) declared joins and leaves are
// spliced in place and touched slots refreshed (refreshStructural); the
// epoch, the designer plan and the retained outcomes move only where the
// scope needs them to. Every other round rebuilds here as viewFull: Bump,
// undeclared Drift hooks, scopes refuted by prepareStructural, and
// generation moves observed second-hand on a shared population.
func (e *Engine) ensureView() bool {
	gen := e.pop.Generation()
	if e.agentsOK {
		switch e.scope.rule {
		case viewKeep:
			if e.agentsGen == gen {
				return false
			}
		case viewStructural:
			e.refreshStructural()
			e.agentsGen = gen
			return false
		}
	}
	e.scope.rule = viewFull
	e.agents = append(e.agents[:0], e.pop.Agents...)
	slices.SortFunc(e.agents, func(a, b *worker.Agent) int { return strings.Compare(a.ID, b.ID) })
	e.fitOuts(len(e.agents))
	e.agentsOK = true
	e.agentsGen = gen
	e.buildView()
	return true
}

// viewPos resolves the ID of a population member to its position in the
// cached view: the population index gives its population position, viewOf
// the view position, and a pointer compare confirms it. A stale entry
// heals with one binary search. It reports false for an ID missing from
// the population or from the view, or resolving to a different agent
// object in each (a replacement Touch cannot express).
func (e *Engine) viewPos(id string) (int, bool) {
	p, ok := e.pop.Lookup(id)
	if !ok {
		return -1, false
	}
	a := e.pop.Agents[p]
	if p < len(e.viewOf) {
		if v := e.viewOf[p]; int(v) < len(e.agents) && e.agents[v] == a {
			return int(v), true
		}
	} else {
		e.viewOf = grown(e.viewOf, len(e.pop.Agents))
	}
	v, ok := searchAgents(e.agents, id)
	if !ok || e.agents[v] != a {
		return -1, false
	}
	e.viewOf[p] = int32(v)
	return v, true
}

// hasID reports whether the sorted ids contain id.
func hasID(ids []string, id string) bool {
	i := sort.SearchStrings(ids, id)
	return i < len(ids) && ids[i] == id
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
// joiner ID to its agent object, each joiner and leaver to its splice
// position, and each plain-touched ID to its view position. It reports
// false — and the caller escalates the round to viewFull — when the scope
// cannot be applied in place: no retained view yet, an ID declared both
// joined and left (ambiguous against a view that only sees the
// endpoints), a joiner already in the view, a leaver missing from it, a
// joiner that does not resolve in Population.Agents, a plain-touched ID
// that does not resolve to the same agent in the population and the view,
// or a population length that disagrees with the declarations (an
// undeclared add or removal). Declarations the
// checks cannot refute are trusted: an inaccurate scope is the caller's
// bug.
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
	e.leavePos = e.leavePos[:0]
	for _, id := range leaves {
		v, ok := searchAgents(e.agents, id)
		if !ok {
			return false
		}
		e.leavePos = append(e.leavePos, int32(v))
	}
	e.structJoins = e.structJoins[:0]
	e.joinPos = e.joinPos[:0]
	for _, id := range joins {
		p, ok := e.pop.Lookup(id)
		if !ok {
			return false
		}
		v, in := searchAgents(e.agents, id)
		if in {
			return false
		}
		e.structJoins = append(e.structJoins, e.pop.Agents[p])
		e.joinPos = append(e.joinPos, int32(v))
	}
	e.touchPos = e.touchPos[:0]
	for _, id := range e.scope.ids {
		v := -1
		if !hasID(joins, id) && !hasID(leaves, id) {
			var ok bool
			if v, ok = e.viewPos(id); !ok {
				return false
			}
		}
		e.touchPos = append(e.touchPos, int32(v))
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

// spliceShift maps a survivor's pre-splice index v to its post-splice
// index: the segments are ordered by src, so the one holding v
// binary-searches.
func spliceShift(segs []spliceSeg, v int32) int32 {
	s := segs[sort.Search(len(segs), func(i int) bool { return segs[i].src+segs[i].n > v })]
	return v + s.dst - s.src
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

// fitOuts sets the outcome buffer's length to n, keeping the retained
// prefix. It grows by one exact allocation: append's doubling would keep
// up to twice the view's outcomes live for the session. Entries past the
// prefix are left as they are; respond writes every one before settle
// reads it.
func (e *Engine) fitOuts(n int) {
	if cap(e.outs) < n {
		o := make([]AgentOutcome, n)
		copy(o, e.outs)
		e.outs = o
	}
	e.outs = e.outs[:n]
}

// spliceView applies the round's resolved joins and leaves to the cached
// view in place: survivor segments between the ID-sorted splice points
// shift by their cumulative join/leave offset (most never move), and the
// outcome buffer, the indexed columns and the contract and utility slots
// move with the same segments, so every survivor keeps its retained
// outcome, contract and per-slot utility at its view position. Leavers
// drop out (their design keys released); each joiner lands at its final
// index (joinDst). A joiner's contract takes the sparse patch route —
// view policy, design cache hit, dirty slot — when it can; any
// joiner that cannot moves the view to the refresh's epoch for a full
// re-plan. Touched positions shift to the spliced view.
func (e *Engine) spliceView(epoch uint64, canPatch bool) {
	v := &e.view
	if len(e.dirty) > 0 {
		// Stale patch slots (an aborted previous round) would shift under
		// the splice; fall back to a full respond.
		e.dirty = e.dirty[:0]
		e.outsOK = false
	}
	// Release every leaver's design key before the moves overwrite its
	// slot. prepareStructural resolved every splice position — joins and
	// leaves arrive ID-sorted, so their positions are non-decreasing and
	// the merge reduces to contiguous survivor segments.
	for _, p := range e.leavePos {
		e.keys.release(v.Keys[p])
	}
	segs, jdst := buildSpliceSegs(e.viewSegs[:0], e.joinDst[:0], e.joinPos, e.leavePos, len(e.agents))
	nOld := len(e.agents)
	nNew := nOld + len(e.structJoins) - len(e.scope.leaves)
	nMax := max(nOld, nNew)
	e.agents = grown(e.agents, nMax)
	e.fitOuts(nMax)
	v.Weights = grown(v.Weights, nMax)
	v.Malice = grown(v.Malice, nMax)
	v.Keys = grown(v.Keys, nMax)
	e.contracts = grown(e.contracts, nMax)
	// wuSlots runs short before the first respond; the zero padding is
	// what that respond overwrites.
	e.wuSlots = grown(e.wuSlots, nMax)
	spliceMove(e.agents, segs)
	spliceMove(e.outs, segs)
	spliceMove(v.Weights, segs)
	spliceMove(v.Malice, segs)
	spliceMove(v.Keys, segs)
	spliceMove(e.contracts, segs)
	spliceMove(e.wuSlots, segs)

	bump := false
	for k, a := range e.structJoins {
		d := jdst[k]
		w := e.pop.Weights[a.ID]
		key := DesignKeyOf(a, e.pop.Part)
		e.agents[d] = a
		v.Weights[d] = w
		v.Malice[d] = e.pop.MaliceProb[a.ID]
		v.Keys[d] = e.keys.ref(&key)
		e.wuSlots[d] = 0
		var c *contract.PiecewiseLinear
		if canPatch {
			c = e.patchContract(&key, w)
		}
		if c != nil {
			e.dirty = append(e.dirty, d)
		} else {
			bump = true
		}
		e.contracts[d] = c
	}
	clear(e.agents[nNew:]) // release the pointer tails
	clear(e.contracts[nNew:])
	e.agents = e.agents[:nNew]
	e.outs = e.outs[:nNew]
	v.Agents = e.agents
	v.Weights = v.Weights[:nNew]
	v.Malice = v.Malice[:nNew]
	v.Keys = v.Keys[:nNew]
	e.contracts = e.contracts[:nNew]
	e.wuSlots = e.wuSlots[:nNew]
	for k, p := range e.touchPos {
		if p >= 0 {
			e.touchPos[k] = spliceShift(segs, p)
		}
	}
	e.viewSegs, e.joinDst = segs, jdst
	if bump {
		e.bumpEpoch(epoch)
		e.dirty = e.dirty[:0]
	} else if len(e.scope.leaves) > 0 && e.outsOK {
		// A leave shrinks the retained per-slot utility breakdown; re-fold
		// the sum so the warm skip stays exact.
		var wu float64
		for _, u := range e.wuSlots {
			wu += u
		}
		e.wu = wu
	}
}

// validateStructural re-checks what a declared scope can have changed,
// through the validator the serving layer's drift shares
// (Population.ValidateScope): a non-empty population, the scalar Mu,
// every joiner in full, and every plain-touched agent still present. The
// remaining Validate invariants (membership, duplicates, orphan map
// entries) move only through the declared joins and leaves
// prepareStructural cross-checked, so the O(population) pass is skipped.
// Leavers are skipped — their map entries left with them — and a touched
// ID that is also a joiner is covered by the joiner pass. Runs before the
// splice, so touched positions index the pre-splice view.
func (e *Engine) validateStructural() error {
	agents := append(e.scopeAgents[:0], e.structJoins...)
	for _, v := range e.touchPos {
		if v >= 0 {
			agents = append(agents, e.agents[v])
		}
	}
	err := e.pop.ValidateScope(agents...)
	clear(agents) // hold no agent past the check
	e.scopeAgents = agents[:0]
	return err
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
