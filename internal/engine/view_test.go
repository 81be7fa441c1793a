package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// viewDesignPolicy extends designPolicy with design over the engine's
// indexed view through engine.ViewDesigner — the minimal ViewPolicy,
// mirroring platform.DynamicPolicy's wiring.
type viewDesignPolicy struct {
	designPolicy
}

func (p *viewDesignPolicy) ViewContracts(ctx context.Context, pop *engine.Population, v *engine.View, dst []*contract.PiecewiseLinear) (bool, error) {
	return p.d.View().Contracts(ctx, pop, v, dst)
}

// BatchStats reports the designer's last solver batch for traced rounds.
func (p *viewDesignPolicy) BatchStats() (int, uint64) { return p.d.View().BatchStats() }

var (
	_ engine.ViewPolicy    = (*viewDesignPolicy)(nil)
	_ engine.BatchReporter = (*viewDesignPolicy)(nil)
)

// TestEngineViewOrder checks the engine's view as a ViewPolicy
// receives it: Agents is the ID-sorted population, the indexed columns
// (Weights, Malice, Keys) align with their agents (Engine.CheckViews
// adds the key table), and Config.Shards — ignored — changes nothing.
func TestEngineViewOrder(t *testing.T) {
	view := func(shards int) engine.View {
		t.Helper()
		eng, err := engine.New(archetypePopulation(t, 23), engine.Config{
			Policy: &viewDesignPolicy{},
			Rounds: 1,
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckViews(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return eng.CurrentView()
	}

	pop := archetypePopulation(t, 23)
	sorted := make([]string, 0, len(pop.Agents))
	for _, a := range pop.Agents {
		sorted = append(sorted, a.ID)
	}
	sort.Strings(sorted)
	sh := view(0)
	if len(sh.Agents) != len(sorted) {
		t.Fatalf("view holds %d agents, population %d", len(sh.Agents), len(sorted))
	}
	if len(sh.Weights) != len(sh.Agents) || len(sh.Malice) != len(sh.Agents) || len(sh.Keys) != len(sh.Agents) {
		t.Fatal("misaligned views")
	}
	for i, a := range sh.Agents {
		if a.ID != sorted[i] {
			t.Errorf("view[%d] = %s, want %s", i, a.ID, sorted[i])
		}
		if sh.Weights[i] != pop.Weights[a.ID] {
			t.Errorf("agent %s weight view %v, want %v", a.ID, sh.Weights[i], pop.Weights[a.ID])
		}
		if sh.Malice[i] != pop.MaliceProb[a.ID] {
			t.Errorf("agent %s malice view %v, want %v", a.ID, sh.Malice[i], pop.MaliceProb[a.ID])
		}
		if sh.Key(i) != engine.DesignKeyOf(a, pop.Part) {
			t.Errorf("agent %s view design key differs from DesignKeyOf", a.ID)
		}
	}

	for _, shards := range []int{1, 4, -1, 1000} {
		got := view(shards)
		if len(got.Agents) != len(sh.Agents) || !reflect.DeepEqual(got.Weights, sh.Weights) ||
			!reflect.DeepEqual(got.Malice, sh.Malice) || !reflect.DeepEqual(got.Keys, sh.Keys) {
			t.Errorf("Shards=%d: view differs from Shards=0", shards)
		}
		for i, a := range got.Agents {
			if a.ID != sh.Agents[i].ID {
				t.Errorf("Shards=%d: view[%d] = %s, want %s", shards, i, a.ID, sh.Agents[i].ID)
			}
		}
	}
}

// structuralDrift is the determinism sweep's stress drift: weight drift
// every round, an agent added at round 2, one removed at round 3 (with
// its map entries, honouring Validate's orphan check), and the Agents
// slice reversed at round 4 — all deterministic.
func structuralDrift(tb testing.TB) func(int, *engine.Population) {
	tb.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		tb.Fatal(err)
	}
	return func(round int, pop *engine.Population) {
		for _, a := range pop.Agents {
			pop.Weights[a.ID] *= 1.03
		}
		switch round {
		case 2:
			a, err := worker.NewHonest("zz-joined", psi, 1, pop.Part.YMax())
			if err != nil {
				panic(err)
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 0.9
			pop.MaliceProb[a.ID] = 0.1
		case 3:
			gone := pop.Agents[0]
			pop.Agents = append(pop.Agents[:0], pop.Agents[1:]...)
			delete(pop.Weights, gone.ID)
			delete(pop.MaliceProb, gone.ID)
		case 4:
			for i, j := 0, len(pop.Agents)-1; i < j; i, j = i+1, j-1 {
				pop.Agents[i], pop.Agents[j] = pop.Agents[j], pop.Agents[i]
			}
		}
	}
}

// TestShardedLedgerIdentical is the pipeline's determinism pin: for both
// the ViewPolicy route and the plain-policy fallback, with and without
// the respond memo, the ledger is byte-identical to the naive reference
// round — under a drift that rescales weights, adds, removes, and
// reorders agents.
func TestShardedLedgerIdentical(t *testing.T) {
	ctx := context.Background()
	const rounds = 6
	run := func(viewPolicy, memo bool) []engine.Round {
		t.Helper()
		var pol engine.Policy
		if viewPolicy {
			pol = &viewDesignPolicy{}
		} else {
			pol = &designPolicy{}
		}
		cfg := engine.Config{
			Policy: pol,
			Rounds: rounds,
			Drift:  structuralDrift(t),
			Cache:  engine.NewCache(),
		}
		if memo {
			cfg.Memo = engine.NewRespondMemo()
		}
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}

	ref := referenceLedger(t, archetypePopulation(t, 30), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
		Drift:  structuralDrift(t),
	})
	if len(ref) != rounds {
		t.Fatalf("reference ledger has %d rounds, want %d", len(ref), rounds)
	}
	for _, viewPolicy := range []bool{true, false} {
		for _, memo := range []bool{true, false} {
			name := fmt.Sprintf("viewpolicy=%v/memo=%v", viewPolicy, memo)
			if got := run(viewPolicy, memo); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: ledger differs from reference", name)
			}
		}
	}
}

// eventRecorder captures the full observable event stream in a
// pointer-free form, so streams from different engines can be compared.
type eventRecorder struct {
	events []string
}

func (r *eventRecorder) OnContracts(round int, cs map[string]*contract.PiecewiseLinear) {
	ids := make([]string, 0, len(cs))
	for id := range cs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	r.events = append(r.events, fmt.Sprintf("contracts r%d %v", round, ids))
}

func (r *eventRecorder) OnOutcome(round int, oc engine.AgentOutcome) {
	r.events = append(r.events, fmt.Sprintf("outcome r%d %s e=%.9f c=%.9f w=%.9f", round, oc.AgentID, oc.Effort, oc.Compensation, oc.Weight))
}

func (r *eventRecorder) OnRoundEnd(round engine.Round) error {
	r.events = append(r.events, fmt.Sprintf("end r%d u=%.9f", round.Index, round.Utility))
	return nil
}

// TestShardedObserverEventOrder pins that the pipeline emits exactly the
// reference round's event stream: same OnContracts coverage, same
// per-agent OnOutcome order (ID order), same round ends.
func TestShardedObserverEventOrder(t *testing.T) {
	ctx := context.Background()
	rec := &eventRecorder{}
	cfg := engine.Config{
		Policy:    &viewDesignPolicy{},
		Rounds:    3,
		Cache:     engine.NewCache(),
		Memo:      engine.NewRespondMemo(),
		Observers: []engine.Observer{rec},
	}
	if _, err := engine.RunLedger(ctx, archetypePopulation(t, 12), cfg); err != nil {
		t.Fatal(err)
	}
	ref := &eventRecorder{}
	referenceLedger(t, archetypePopulation(t, 12), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    3,
		Observers: []engine.Observer{ref},
	})
	if !reflect.DeepEqual(rec.events, ref.events) {
		t.Error("event stream differs from reference")
	}
}

// TestShardedWarmSkipsRespond pins the pipeline's fast path: once the
// view is warm (stable population, cached designs, dense contracts), the
// respond stage is skipped outright — the memo's counters freeze
// completely.
func TestShardedWarmSkipsRespond(t *testing.T) {
	ctx := context.Background()
	pop := archetypePopulation(t, 24)
	memo := engine.NewRespondMemo()
	eng, err := engine.New(pop, engine.Config{
		Policy: &viewDesignPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cold := memo.Stats()
	if cold.Misses == 0 {
		t.Fatalf("cold round recorded no memo misses: %+v", cold)
	}
	for i := 0; i < 5; i++ {
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	warm := memo.Stats()
	if warm.Hits != cold.Hits || warm.Misses != cold.Misses {
		t.Errorf("warm rounds touched the memo: cold %+v, after warm %+v", cold, warm)
	}
}

// TestShardedWarmRoundZeroAllocs extends the zero-alloc warm-round
// guarantee to the ViewPolicy route: a warmed cache+memo engine
// allocates nothing per Run — the view, the plan, the outcome buffer, and
// scratch are all reused, and warm rounds skip respond.
func TestShardedWarmRoundZeroAllocs(t *testing.T) {
	pop := archetypePopulation(t, 120)
	ctx := context.Background()
	eng, err := engine.New(pop, engine.Config{
		Policy: &viewDesignPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil { // warm: view + designs + responses
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm round allocates %v objects per Run, want 0", allocs)
	}
}

// TestShardedBumpSemantics pins the Bump contract on the ViewPolicy
// route: with no Drift configured, an in-place weight
// mutation is invisible (the indexed views are cached) until
// Population.Bump or Touch declares it, and a structural addition only
// appears once declared.
func TestShardedBumpSemantics(t *testing.T) {
	ctx := context.Background()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}

	newEng := func(pop *engine.Population, led *engine.Ledger) *engine.Engine {
		t.Helper()
		eng, err := engine.New(pop, engine.Config{
			Policy:    &viewDesignPolicy{},
			Rounds:    1,
			Cache:     engine.NewCache(),
			Observers: []engine.Observer{led},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	lastWeight := func(led *engine.Ledger, id string) (float64, bool) {
		for _, oc := range led.Rounds[len(led.Rounds)-1].Outcomes {
			if oc.AgentID == id {
				return oc.Weight, true
			}
		}
		return 0, false
	}

	t.Run("sharded stale until Bump", func(t *testing.T) {
		for _, declare := range []string{"Bump", "Touch"} {
			pop := archetypePopulation(t, 12)
			led := &engine.Ledger{}
			eng := newEng(pop, led)
			id := pop.Agents[0].ID
			if err := eng.Run(ctx); err != nil {
				t.Fatal(err)
			}
			w0, _ := lastWeight(led, id)

			pop.Weights[id] = w0 * 2 // in place, undeclared: pinned stale
			if err := eng.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if w, _ := lastWeight(led, id); w != w0 {
				t.Errorf("weight visible before %s: got %v, want stale %v", declare, w, w0)
			}

			if declare == "Bump" {
				pop.Bump()
			} else {
				pop.Touch(id)
			}
			if err := eng.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if w, _ := lastWeight(led, id); w != w0*2 {
				t.Errorf("weight after %s = %v, want %v", declare, w, w0*2)
			}
		}
	})

	t.Run("structural add reshards on Bump", func(t *testing.T) {
		pop := archetypePopulation(t, 12)
		led := &engine.Ledger{}
		eng := newEng(pop, led)
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
		a, err := worker.NewHonest("zz-joined", psi, 1, pop.Part.YMax())
		if err != nil {
			t.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = 0.9
		pop.MaliceProb[a.ID] = 0.1

		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok := lastWeight(led, a.ID); ok {
			t.Error("added agent visible without Bump")
		}
		pop.Bump()
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
		if w, ok := lastWeight(led, a.ID); !ok || w != 0.9 {
			t.Errorf("added agent after Bump: weight %v (present %v), want 0.9", w, ok)
		}
	})
}

// TestShardedResponderHook checks the custom-Responder route on the
// ViewPolicy route: same ledger as the reference round.
func TestShardedResponderHook(t *testing.T) {
	ctx := context.Background()
	responder := func(round int, a *worker.Agent, c *contract.PiecewiseLinear, part effort.Partition) (float64, error) {
		return float64(round%3) + 1.5, nil
	}
	ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 18), engine.Config{
		Policy:    &viewDesignPolicy{},
		Rounds:    4,
		Responder: responder,
		Cache:     engine.NewCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceLedger(t, archetypePopulation(t, 18), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    4,
		Responder: responder,
	})
	if !reflect.DeepEqual(ledger, ref) {
		t.Error("responder ledger differs from reference")
	}
}

// failingViewPolicy fails ViewContracts on demand.
type failingViewPolicy struct {
	viewDesignPolicy
	fail bool
}

var errViewBoom = errors.New("view boom")

func (p *failingViewPolicy) ViewContracts(ctx context.Context, pop *engine.Population, sh *engine.View, dst []*contract.PiecewiseLinear) (bool, error) {
	if p.fail {
		return false, errViewBoom
	}
	return p.viewDesignPolicy.ViewContracts(ctx, pop, sh, dst)
}

// TestShardedDesignError checks that a ViewContracts failure surfaces
// with the policy and round attribution and wraps the cause.
func TestShardedDesignError(t *testing.T) {
	ctx := context.Background()
	pol := &failingViewPolicy{fail: true}
	_, err := engine.RunLedger(ctx, archetypePopulation(t, 9), engine.Config{
		Policy: pol,
		Rounds: 2,
		Cache:  engine.NewCache(),
	})
	if !errors.Is(err, errViewBoom) {
		t.Fatalf("err = %v, want wrapped errViewBoom", err)
	}
	if !strings.Contains(err.Error(), "round 0") || !strings.Contains(err.Error(), pol.Name()) {
		t.Errorf("err %q lacks round/policy attribution", err)
	}
}

// TestShardedStageTimings pins the stage counts on the ViewPolicy
// route: every whole-stage histogram observes once per round, warm rounds
// included (their respond stage skips its work, not its observation).
func TestShardedStageTimings(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	const rounds = 3
	eng, err := engine.New(archetypePopulation(t, 16), engine.Config{
		Policy:  &viewDesignPolicy{},
		Rounds:  rounds,
		Cache:   engine.NewCache(),
		Memo:    engine.NewRespondMemo(),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{
		engine.MetricStageDesignSeconds,
		engine.MetricStageRespondSeconds,
		engine.MetricStageSettleSeconds,
		engine.MetricStageObserveSeconds,
		engine.MetricRoundSeconds,
	} {
		h, ok := snap.Histograms[name]
		if !ok || h.Count != rounds {
			t.Errorf("%s count = %v (present %v), want %d", name, h.Count, ok, rounds)
		}
	}
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "dyncontract_engine_shard") {
			t.Errorf("per-shard histogram %s registered", name)
		}
	}
}

// TestPolicyReusedAcrossEngines runs one ViewPolicy on two engines in
// turn, each with its own design cache. Every engine numbers its views
// afresh, so a plan keyed on a per-engine epoch would let the second
// engine's first round warm-validate the first engine's plan against the
// first engine's cache and report nothing changed — leaving every
// contract slot empty and every agent excluded. Both ledgers must match a
// fresh policy's.
func TestPolicyReusedAcrossEngines(t *testing.T) {
	ctx := context.Background()
	pol := &viewDesignPolicy{}
	for _, n := range []int{5, 7} {
		got, err := engine.RunLedger(ctx, archetypePopulation(t, n), engine.Config{
			Policy: pol,
			Rounds: 2,
			Cache:  engine.NewCache(),
			Memo:   engine.NewRespondMemo(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceLedger(t, archetypePopulation(t, n), engine.Config{Policy: &designPolicy{}, Rounds: 2})
		if !reflect.DeepEqual(got, ref) {
			excluded := 0
			for _, oc := range got[0].Outcomes {
				if oc.Excluded {
					excluded++
				}
			}
			t.Errorf("n=%d: ledger differs from a fresh policy's: round 0 utility %v (want %v), %d/%d excluded",
				n, got[0].Utility, ref[0].Utility, excluded, n)
		}
	}
}
