package engine_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// scopedDrift is the sparse-drift determinism sweep's mutation schedule:
// in-place parameter drift (weight, β, ψ, ω), a structural add, a
// structural remove, weight drift onto fresh fingerprints, and weight
// drift onto an already-cached fingerprint (the patch route under a
// fingerprint-pure policy) — every mutation declared through the
// provided declare callback, so the same schedule runs once with sparse
// Touch scopes and once with full Bump scopes.
func scopedDrift(tb testing.TB, declare func(pop *engine.Population, ids ...string)) func(int, *engine.Population) {
	tb.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2.1, 1, 40)
	if err != nil {
		tb.Fatal(err)
	}
	return func(round int, pop *engine.Population) {
		switch round {
		case 1:
			// In-place drift across all four mutable axes, on agents of
			// every class (ω stays 0 on honest agents — class-constrained).
			pop.Weights["h00000"] *= 1.02
			for _, a := range pop.Agents {
				switch a.ID {
				case "m00001":
					a.Beta *= 1.1
					a.Omega = 0.6
				case "c00002":
					a.Psi = psi
				}
			}
			declare(pop, "h00000", "m00001", "c00002")
		case 2:
			a, err := worker.NewHonest("zz-joined", psi, 1, pop.Part.YMax())
			if err != nil {
				panic(err)
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 0.9
			pop.MaliceProb[a.ID] = 0.1
			declare(pop, a.ID)
		case 3:
			gone := pop.Agents[0]
			pop.Agents = append(pop.Agents[:0], pop.Agents[1:]...)
			delete(pop.Weights, gone.ID)
			delete(pop.MaliceProb, gone.ID)
			declare(pop, gone.ID)
		case 4:
			pop.Weights["h00003"] *= 0.95
			pop.Weights["h00006"] *= 1.05
			declare(pop, "h00003", "h00006")
		case 5:
			// Drift onto a fingerprint another agent already holds
			// (h00003's from round 4): with a cache attached this is the
			// sparse patch route — contract served straight from the
			// cache, only this agent's outcome slot refreshed.
			pop.Weights["h00009"] = pop.Weights["h00003"]
			declare(pop, "h00009")
		}
		// Round 0: no mutation and no declaration — under a Drift hook an
		// undeclared round takes the legacy full-rebuild path.
	}
}

// TestSparseDriftLedgerIdentical is the drift-scope determinism pin: the
// same mutation schedule, declared sparsely (Population.Touch) and fully
// (Population.Bump), produces byte-identical ledgers with and without the
// respond memo — all equal to the naive reference round. Sparse scopes are an acceleration, never an observable
// behaviour change.
func TestSparseDriftLedgerIdentical(t *testing.T) {
	ctx := context.Background()
	const rounds = 6
	run := func(memo, sparse bool) []engine.Round {
		t.Helper()
		declare := func(pop *engine.Population, ids ...string) {
			if sparse {
				pop.Touch(ids...)
			} else {
				pop.Bump()
			}
		}
		cfg := engine.Config{
			Policy: &viewDesignPolicy{},
			Rounds: rounds,
			Drift:  scopedDrift(t, declare),
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
		Drift:  scopedDrift(t, func(pop *engine.Population, _ ...string) { pop.Bump() }),
	})
	if len(ref) != rounds {
		t.Fatalf("reference ledger has %d rounds, want %d", len(ref), rounds)
	}
	for _, memo := range []bool{true, false} {
		for _, sparse := range []bool{true, false} {
			name := fmt.Sprintf("memo=%v/sparse=%v", memo, sparse)
			if got := run(memo, sparse); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: ledger differs from reference", name)
			}
		}
	}
}

// contractGrabber retains the contract served to one agent each round.
type contractGrabber struct {
	id   string
	last *contract.PiecewiseLinear
}

func (g *contractGrabber) OnContracts(_ int, cs map[string]*contract.PiecewiseLinear) {
	if c, ok := cs[g.id]; ok {
		g.last = c
	}
}
func (g *contractGrabber) OnOutcome(int, engine.AgentOutcome) {}
func (g *contractGrabber) OnRoundEnd(engine.Round) error      { return nil }

// TestSparseDriftShardSkips pins the sparse refresh mechanics on an
// instrumented engine: a one-agent Touch is one scoped refresh that
// touched the view (counters say 1 refresh, 1 agent touched, and one
// refresh timed), and the drifted agent's old design key — which it alone
// held — is evicted from both the menu cache and the respond memo,
// while the new key is present. (A weight is not part of the key, so the
// drift moves β: weight drift evicts nothing — TestWeightDriftKeepsMenus.)
func TestSparseDriftShardSkips(t *testing.T) {
	ctx := context.Background()
	const (
		id      = "h00003"
		oldBeta = 1.1
		newBeta = 1.2
	)
	pop := archetypePopulation(t, 12)
	var drifted *worker.Agent
	for _, a := range pop.Agents {
		if a.ID == id {
			drifted = a
		}
	}
	drifted.Beta = oldBeta // unique β → unique design key
	oldKey := engine.DesignKeyOf(drifted, pop.Part)

	reg := telemetry.NewRegistry()
	cache := engine.NewCache()
	memo := engine.NewRespondMemo()
	grab := &contractGrabber{id: id}
	cfg := engine.Config{
		Policy:    &viewDesignPolicy{},
		Rounds:    1,
		Cache:     cache,
		Memo:      memo,
		Metrics:   reg,
		Observers: []engine.Observer{grab},
	}
	eng, err := engine.New(pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	oldContract := grab.last
	if oldContract == nil {
		t.Fatalf("no contract captured for %s", id)
	}
	if !cache.Holds(oldKey) {
		t.Fatalf("old design key not cached after warm round")
	}
	if _, ok := memo.Get(oldKey, oldContract); !ok {
		t.Fatalf("old (design key, contract) not memoized after warm round")
	}

	drifted.Beta = newBeta
	newKey := engine.DesignKeyOf(drifted, pop.Part)
	pop.Touch(id)
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters[engine.MetricDriftTouchedAgents]; got != 1 {
		t.Errorf("touched agents = %d, want 1", got)
	}
	if got := s.Counters[engine.MetricDriftShardsRebuilt]; got != 1 {
		t.Errorf("refreshes that touched the view = %d, want 1", got)
	}
	if h, ok := s.Histograms[engine.MetricDriftRebuildSeconds]; !ok || h.Count != 1 {
		t.Errorf("drift-rebuild timing observations = %+v, want 1 observation", h)
	}

	// Targeted invalidation: the dead design key is gone from both
	// layers, the live one is served.
	if cache.Holds(oldKey) {
		t.Errorf("cache still holds the dead design key after sparse drift")
	}
	if !cache.Holds(newKey) {
		t.Errorf("cache does not hold the drifted design key")
	}
	if _, ok := memo.Get(oldKey, oldContract); ok {
		t.Errorf("memo still holds the dead design key after sparse drift")
	}
}

// TestTouchUndeclaredSecondConsumer pins the shared-population fallback:
// a second engine over the same population cannot see the first engine's
// consumed scope, but the generation compare still forces it to rebuild
// — a Touch is never weaker than a Bump for secondary consumers.
func TestTouchUndeclaredSecondConsumer(t *testing.T) {
	ctx := context.Background()
	pop := archetypePopulation(t, 9)
	mk := func() (*engine.Engine, *engine.Ledger) {
		led := &engine.Ledger{}
		e, err := engine.New(pop, engine.Config{
			Policy:    &viewDesignPolicy{},
			Rounds:    1,
			Observers: []engine.Observer{led},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, led
	}
	first, firstLed := mk()
	second, secondLed := mk()
	for _, e := range []*engine.Engine{first, second} {
		if err := e.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}

	pop.Weights["h00000"] = 2
	pop.Touch("h00000")
	run := func(e *engine.Engine, led *engine.Ledger) engine.Round {
		t.Helper()
		if err := e.Step(ctx); err != nil {
			t.Fatal(err)
		}
		return led.Rounds[len(led.Rounds)-1]
	}
	a, b := run(first, firstLed), run(second, secondLed) // first consumes the scope; second sees only the generation
	if !reflect.DeepEqual(a, b) {
		t.Errorf("second consumer's round differs from the scope consumer's")
	}
	for _, oc := range b.Outcomes {
		if oc.AgentID == "h00000" && oc.Weight != 2 {
			t.Errorf("second consumer did not observe the drift: weight = %v, want 2", oc.Weight)
		}
	}
}

// declaredChurnDrift is the structural-drift determinism sweep's mutation
// schedule: joins onto cached archetype fingerprints (the patch route
// under a fingerprint-pure policy), leaves of original members, a mixed
// round combining a join, a leave, and an in-place weight drift, and a
// rejoin of a previously-left ID — every membership change declared
// through the join/leave callbacks so the same schedule runs once with
// structural TouchJoin/TouchLeave scopes and once with full Bump scopes.
// Each returned closure carries its own rejoin state, so every run gets
// a fresh schedule over its own population.
func declaredChurnDrift(tb testing.TB, structural bool) func(int, *engine.Population) {
	tb.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		tb.Fatal(err)
	}
	join := func(pop *engine.Population, a *worker.Agent, w, mal float64) {
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = w
		pop.MaliceProb[a.ID] = mal
		if structural {
			pop.TouchJoin(a.ID)
		} else {
			pop.Bump()
		}
	}
	leave := func(pop *engine.Population, id string) *worker.Agent {
		for i, a := range pop.Agents {
			if a.ID == id {
				pop.Agents = append(pop.Agents[:i], pop.Agents[i+1:]...)
				delete(pop.Weights, id)
				delete(pop.MaliceProb, id)
				if structural {
					pop.TouchLeave(id)
				} else {
					pop.Bump()
				}
				return a
			}
		}
		tb.Fatalf("leave: agent %q not in population", id)
		return nil
	}
	var gone *worker.Agent // left in round 2, rejoined in round 4
	return func(round int, pop *engine.Population) {
		switch round {
		case 1:
			// Two joiners cloning existing archetypes: their fingerprints
			// already sit in the design cache, so a fingerprint-pure policy
			// patches them straight from it.
			h, err := worker.NewHonest("zj00001", psi, 1, pop.Part.YMax())
			if err != nil {
				panic(err)
			}
			join(pop, h, 1, 0.05)
			m, err := worker.NewMalicious("zj00002", psi, 1, 0.5, pop.Part.YMax())
			if err != nil {
				panic(err)
			}
			join(pop, m, 0.8, 0.9)
		case 2:
			gone = leave(pop, "h00000")
			leave(pop, "m00001")
		case 3:
			// Mixed scope: a join, a leave, and an in-place weight drift in
			// the same round.
			c, err := worker.NewCommunity("zj00003", psi, 1, 0.5, 3, pop.Part.YMax())
			if err != nil {
				panic(err)
			}
			join(pop, c, 0.5, 0.95)
			leave(pop, "c00002")
			pop.Weights["h00003"] *= 1.1
			if structural {
				pop.Touch("h00003")
			} else {
				pop.Bump()
			}
		case 4:
			// Rejoin of a left ID: the view must re-insert it at its old
			// sort position and respond it afresh.
			join(pop, gone, 1, 0.05)
		}
		// Rounds 0 and 5: no mutation, no declaration — warm rounds
		// bracketing the churn.
	}
}

// TestStructuralDriftLedgerIdentical is the structural-scope determinism
// pin: the same join/leave/mixed schedule, declared structurally
// (TouchJoin/TouchLeave/Touch) and fully (Bump), produces byte-identical
// ledgers with and without the respond memo — all equal to the naive
// reference round.
// Declared structural scopes are an acceleration, never an observable
// behaviour change.
func TestStructuralDriftLedgerIdentical(t *testing.T) {
	const rounds = 6
	run := func(memo, structural bool) []engine.Round {
		t.Helper()
		cfg := engine.Config{
			Policy: &viewDesignPolicy{},
			Rounds: rounds,
			Drift:  declaredChurnDrift(t, structural),
			Cache:  engine.NewCache(),
		}
		if memo {
			cfg.Memo = engine.NewRespondMemo()
		}
		return checkedLedger(t, archetypePopulation(t, 30), cfg)
	}

	ref := referenceLedger(t, archetypePopulation(t, 30), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
		Drift:  declaredChurnDrift(t, false),
	})
	if len(ref) != rounds {
		t.Fatalf("reference ledger has %d rounds, want %d", len(ref), rounds)
	}
	for _, memo := range []bool{true, false} {
		for _, structural := range []bool{true, false} {
			name := fmt.Sprintf("memo=%v/structural=%v", memo, structural)
			if got := run(memo, structural); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: ledger differs from reference", name)
			}
		}
	}
}

// TestStructuralDriftCounters pins the structural classification on an
// instrumented engine: the schedule's declared joins and leaves
// land in the drift counters, and the last round — round 4's declared
// rejoin — reports viewStructural both declared and applied (no silent
// escalation to the full rebuild).
func TestStructuralDriftCounters(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	cfg := engine.Config{
		Policy:  &viewDesignPolicy{},
		Rounds:  5,
		Drift:   declaredChurnDrift(t, true),
		Cache:   engine.NewCache(),
		Metrics: reg,
	}
	eng, err := engine.New(archetypePopulation(t, 30), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if declared, applied := eng.LastDriftClass(); declared != "viewStructural" || applied != declared {
		t.Errorf("LastDriftClass = (%s, %s), want (viewStructural, viewStructural)", declared, applied)
	}
	s := reg.Snapshot()
	// Schedule totals: 4 joins (2 + 1 + rejoin), 3 leaves, 1 plain touch.
	if got := s.Counters[engine.MetricDriftJoins]; got != 4 {
		t.Errorf("drift joins = %d, want 4", got)
	}
	if got := s.Counters[engine.MetricDriftLeaves]; got != 3 {
		t.Errorf("drift leaves = %d, want 3", got)
	}
	if got := s.Counters[engine.MetricDriftTouchedAgents]; got != 1 {
		t.Errorf("drift touched agents = %d, want 1", got)
	}
}

// TestRefutedScopeReportsEscalation pins the escalation report for a
// declared scope the engine's cross-checks refute: the round runs as
// viewFull, and LastDriftClass still reports the declared viewStructural
// — the pair the serving layer's "drift scope escalated" warning keys on.
func TestRefutedScopeReportsEscalation(t *testing.T) {
	cases := []struct {
		name    string
		declare func(pop *engine.Population)
	}{
		{"join of a present ID", func(pop *engine.Population) { pop.TouchJoin("h00003") }},
		{"touch of an unknown ID", func(pop *engine.Population) { pop.Touch("zz-ghost") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.New(archetypePopulation(t, 12), engine.Config{
				Policy: &viewDesignPolicy{},
				Rounds: 2,
				Cache:  engine.NewCache(),
				Drift: func(round int, pop *engine.Population) {
					if round == 1 {
						tc.declare(pop)
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if declared, applied := eng.LastDriftClass(); declared != "viewStructural" || applied != "viewFull" {
				t.Errorf("LastDriftClass = (%s, %s), want (viewStructural, viewFull)", declared, applied)
			}
		})
	}
}

// TestStructuralDriftLeaveHeavy sheds 70 of 200 agents in two declared
// leave rounds, each followed by a sparse touch, and checks every round
// against the reference and the views after every round: survivors'
// retained outcomes move with the view through stacked leave splices
// and stay exact.
func TestStructuralDriftLeaveHeavy(t *testing.T) {
	ctx := context.Background()
	const (
		n      = 200
		rounds = 6
	)
	// 40 leaves, a touch, then 30 more leaves and a touch of the new first
	// agent.
	var first, second []string
	{
		pop := archetypePopulation(t, n)
		for _, a := range pop.Agents[:40] {
			first = append(first, a.ID)
		}
		for _, a := range pop.Agents[40:70] {
			second = append(second, a.ID)
		}
	}
	schedule := func(structural bool) func(int, *engine.Population) {
		leave := func(pop *engine.Population, ids []string) {
			keep := pop.Agents[:0]
			drop := make(map[string]struct{}, len(ids))
			for _, id := range ids {
				drop[id] = struct{}{}
			}
			for _, a := range pop.Agents {
				if _, gone := drop[a.ID]; gone {
					delete(pop.Weights, a.ID)
					delete(pop.MaliceProb, a.ID)
					continue
				}
				keep = append(keep, a)
			}
			pop.Agents = keep
			if structural {
				pop.TouchLeave(ids...)
			} else {
				pop.Bump()
			}
		}
		return func(round int, pop *engine.Population) {
			switch round {
			case 1:
				leave(pop, first)
			case 2:
				// A sparse round over the spliced view.
				pop.Weights[second[0]] *= 1.05
				if structural {
					pop.Touch(second[0])
				} else {
					pop.Bump()
				}
			case 3:
				leave(pop, second)
			case 4:
				// A sparse touch of the agent at the head of the view.
				pop.Weights[pop.Agents[0].ID] *= 1.02
				if structural {
					pop.Touch(pop.Agents[0].ID)
				} else {
					pop.Bump()
				}
			}
		}
	}

	ref := referenceLedger(t, archetypePopulation(t, n), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
		Drift:  schedule(false),
	})

	reg := telemetry.NewRegistry()
	led := &engine.Ledger{}
	eng, err := engine.New(archetypePopulation(t, n), engine.Config{
		Policy:    &viewDesignPolicy{},
		Rounds:    rounds,
		Drift:     schedule(true),
		Cache:     engine.NewCache(),
		Memo:      engine.NewRespondMemo(),
		Metrics:   reg,
		Observers: []engine.Observer{led},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := eng.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckViews(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r < len(ref) && !reflect.DeepEqual(led.Rounds[r], ref[r]) {
			t.Errorf("round %d: ledger differs from reference", r)
		}
	}
	s := reg.Snapshot()
	if got := s.Counters[engine.MetricDriftLeaves]; got != 70 {
		t.Errorf("drift leaves = %d, want 70", got)
	}
}

// randomDriftSchedule is a seeded random drift schedule mixing every scope
// shape the engine accepts: Touch of weight, β, ψ, and ω drifts, TouchJoin
// of fresh and returning agents, TouchLeave, a join touched in the same
// round, empty Touch() rounds, and Bump. Rounds 1–6 only splice and touch,
// shedding 66–84 agents of a 90-agent population, so splices stack on
// splices before any full rebuild re-sorts the view. Later rounds also
// misdeclare: a Touch of an unknown ID, a TouchJoin of a present ID, or a
// removal left undeclared — each of which the engine must refute and
// rebuild. Joins and leaves scale with the starting population (n/90 of
// the 90-agent counts, rounded up), and a round never removes its last
// agent, so a population of a handful churns too; at 90 agents the counts
// are the unscaled ones. Each call returns an independent schedule, so the
// engine and the reference replay the same mutations on their own
// populations.
func randomDriftSchedule(tb testing.TB, seed uint64) func(int, *engine.Population) {
	tb.Helper()
	psis := make([]effort.Quadratic, 2)
	for i, b := range []float64{2, 2.1} {
		psi, err := effort.NewQuadratic(-0.02, b, 1, 40)
		if err != nil {
			tb.Fatal(err)
		}
		psis[i] = psi
	}
	rng := rand.New(rand.NewPCG(seed, 0))
	weights := []float64{0.5, 0.8, 1, 1.25}
	var gone []*worker.Agent // agents that left in an earlier round
	fresh := 0
	n0 := 0 // the starting population size, read on the first call
	scale := func(k int) int { return (k*n0 + 89) / 90 }

	remove := func(pop *engine.Population, i int) *worker.Agent {
		a := pop.Agents[i]
		pop.Agents = append(pop.Agents[:i], pop.Agents[i+1:]...)
		delete(pop.Weights, a.ID)
		delete(pop.MaliceProb, a.ID)
		return a
	}
	join := func(pop *engine.Population) string {
		var a *worker.Agent
		if k := len(gone); k > 0 && rng.IntN(3) == 0 {
			i := rng.IntN(k)
			a = gone[i]
			gone = append(gone[:i], gone[i+1:]...)
		} else {
			// Fresh IDs sort between the archetype classes ("c" < "j" <
			// "m"), so joins land mid-view and shift survivor segments.
			id := fmt.Sprintf("j%05d", fresh)
			fresh++
			psi, ymax := psis[rng.IntN(2)], pop.Part.YMax()
			var err error
			switch rng.IntN(3) {
			case 0:
				a, err = worker.NewHonest(id, psi, 1, ymax)
			case 1:
				a, err = worker.NewMalicious(id, psi, 1, 0.5, ymax)
			default:
				a, err = worker.NewCommunity(id, psi, 1, 0.5, 3, ymax)
			}
			if err != nil {
				panic(err)
			}
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = weights[rng.IntN(len(weights))]
		pop.MaliceProb[a.ID] = rng.Float64()
		pop.TouchJoin(a.ID)
		return a.ID
	}
	touch := func(pop *engine.Population) {
		a := pop.Agents[rng.IntN(len(pop.Agents))]
		switch rng.IntN(5) {
		case 0:
			pop.Weights[a.ID] = weights[rng.IntN(len(weights))]
		case 1:
			pop.Weights[a.ID] = 0.3 + rng.Float64() // a fingerprint no cache holds
		case 2:
			a.Beta = []float64{1, 1.1}[rng.IntN(2)]
		case 3:
			a.Psi = psis[rng.IntN(2)]
		default:
			if a.Class != worker.Honest { // ω stays 0 on honest agents
				a.Omega = []float64{0.5, 0.6}[rng.IntN(2)]
			}
		}
		pop.Touch(a.ID)
	}

	return func(round int, pop *engine.Population) {
		if n0 == 0 {
			n0 = len(pop.Agents)
		}
		if round == 0 {
			return
		}
		splicing := round <= 6
		if !splicing {
			switch rng.IntN(8) {
			case 0:
				pop.Touch() // declared, nothing touched
				return
			case 1:
				pop.Weights[pop.Agents[0].ID] = weights[rng.IntN(len(weights))]
				pop.Bump()
				return
			}
		}
		nLeave, nJoin := 11+rng.IntN(4), 4+rng.IntN(7)
		if !splicing {
			nLeave, nJoin = rng.IntN(7), rng.IntN(7)
		}
		nLeave, nJoin = min(scale(nLeave), len(pop.Agents)-1), scale(nJoin)
		var left []*worker.Agent
		for range nLeave {
			a := remove(pop, rng.IntN(len(pop.Agents)))
			pop.TouchLeave(a.ID)
			left = append(left, a)
			if rng.IntN(8) == 0 {
				pop.Touch(a.ID) // touched, then left: the leave wins
			}
		}
		for range nJoin {
			id := join(pop)
			if rng.IntN(4) == 0 {
				pop.Weights[id] = weights[rng.IntN(len(weights))]
				pop.Touch(id) // joined and touched in one round
			}
		}
		gone = append(gone, left...) // rejoins start next round
		for range 1 + rng.IntN(4) {
			touch(pop)
		}
		if !splicing {
			switch rng.IntN(4) {
			case 0:
				pop.Touch("zz-ghost")
			case 1:
				pop.TouchJoin(pop.Agents[rng.IntN(len(pop.Agents))].ID)
			case 2:
				if len(pop.Agents) > 1 {
					remove(pop, rng.IntN(len(pop.Agents))) // never declared
				}
			}
		}
	}
}

// checkedLedger steps a fresh engine through cfg.Rounds rounds and
// returns its ledger, checking the engine's view invariants
// (Engine.CheckViews) after every round.
func checkedLedger(tb testing.TB, pop *engine.Population, cfg engine.Config) []engine.Round {
	tb.Helper()
	led := &engine.Ledger{}
	cfg.Observers = append(append([]engine.Observer(nil), cfg.Observers...), led)
	eng, err := engine.New(pop, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for r := 0; r < cfg.Rounds; r++ {
		if err := eng.Step(context.Background()); err != nil {
			tb.Fatalf("round %d: %v", r, err)
		}
		if err := eng.CheckViews(); err != nil {
			tb.Fatalf("round %d: %v", r, err)
		}
	}
	return led.Rounds
}

// TestDriftScopeRandomSchedules is the randomized differential check of
// the scoped drift rule: seeded random schedules (randomDriftSchedule)
// run with and without the respond memo, with a design cache, and
// every ledger must equal the naive reference round's, with the engine's
// views checked after every round.
func TestDriftScopeRandomSchedules(t *testing.T) {
	const (
		n      = 90
		rounds = 12
	)
	for _, seed := range []uint64{1, 2, 3} {
		ref := referenceLedger(t, archetypePopulation(t, n), engine.Config{
			Policy: &designPolicy{},
			Rounds: rounds,
			Drift:  randomDriftSchedule(t, seed),
		})
		for _, memo := range []bool{true, false} {
			cfg := engine.Config{
				Policy:  &viewDesignPolicy{},
				Rounds:  rounds,
				Drift:   randomDriftSchedule(t, seed),
				Cache:   engine.NewCache(),
				Metrics: telemetry.NewRegistry(),
			}
			if memo {
				cfg.Memo = engine.NewRespondMemo()
			}
			name := fmt.Sprintf("seed=%d/memo=%v", seed, memo)
			if got := checkedLedger(t, archetypePopulation(t, n), cfg); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: ledger differs from reference", name)
			}
		}
	}
}

// FuzzDriftSchedule widens TestDriftScopeRandomSchedules: the input picks
// the schedule's seed, the population size (1 to 104 agents), and the
// respond memo, and the engine's ledger must equal the reference's with
// its views intact after every round. randomDriftSchedule scales its
// churn to the population, so small populations are reached too.
func FuzzDriftSchedule(f *testing.F) {
	f.Add(uint64(1), uint8(89), true)
	f.Add(uint64(2), uint8(71), false)
	f.Add(uint64(7), uint8(102), true)
	f.Add(uint64(3), uint8(0), true)
	f.Add(uint64(4), uint8(4), false)
	f.Add(uint64(5), uint8(11), true)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, memo bool) {
		const rounds = 8
		n := 1 + int(size)%104
		ref := referenceLedger(t, archetypePopulation(t, n), engine.Config{
			Policy: &designPolicy{},
			Rounds: rounds,
			Drift:  randomDriftSchedule(t, seed),
		})
		cfg := engine.Config{
			Policy: &viewDesignPolicy{},
			Rounds: rounds,
			Drift:  randomDriftSchedule(t, seed),
			Cache:  engine.NewCache(),
		}
		if memo {
			cfg.Memo = engine.NewRespondMemo()
		}
		if got := checkedLedger(t, archetypePopulation(t, n), cfg); !reflect.DeepEqual(got, ref) {
			t.Errorf("seed=%d n=%d memo=%v: ledger differs from reference", seed, n, memo)
		}
	})
}
