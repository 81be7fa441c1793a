package engine_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// TestRespondMemoDedup is the acceptance check for the respond memo: on a
// population drawn from three archetypes, a cold round performs exactly as
// many BestResponse calls as there are distinct (fingerprint, contract)
// keys (three — misses count the calls actually made), and warm rounds
// perform zero, hitting once per distinct key per round.
func TestRespondMemoDedup(t *testing.T) {
	pop := archetypePopulation(t, 30)
	cache := engine.NewCache()
	memo := engine.NewRespondMemo()
	ctx := context.Background()

	eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 1, Cache: cache, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cold := eng.RespondStats()
	if cold.Misses != 3 {
		t.Errorf("cold round BestResponse calls (misses) = %d, want 3 (= distinct keys)", cold.Misses)
	}
	if cold.Hits != 0 {
		t.Errorf("cold round hits = %d, want 0", cold.Hits)
	}
	if cold.Entries != 3 {
		t.Errorf("entries after cold round = %d, want 3", cold.Entries)
	}

	// Two warm rounds on the same cache+memo: the design cache serves the
	// same contract pointers, so every distinct key hits and nothing is
	// re-solved.
	eng2, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 2, Cache: cache, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(ctx); err != nil {
		t.Fatal(err)
	}
	warm := memo.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm rounds added %d BestResponse calls, want 0", warm.Misses-cold.Misses)
	}
	if want := uint64(2 * 3); warm.Hits != want {
		t.Errorf("warm hits = %d, want %d (distinct keys × rounds)", warm.Hits, want)
	}
}

// TestRespondMemoLedgerIdentical pins the memo as a pure optimization: the
// engine with and without the memo must reproduce the reference round's
// ledger exactly — same values, same order — including under weight drift
// that mints fresh fingerprints mid-run.
func TestRespondMemoLedgerIdentical(t *testing.T) {
	ctx := context.Background()
	drift := func(round int, pop *engine.Population) {
		if round == 0 {
			return
		}
		for _, a := range pop.Agents {
			pop.Weights[a.ID] *= 1.05
		}
	}
	run := func(mutate func(*engine.Config)) []engine.Round {
		t.Helper()
		cfg := engine.Config{Policy: &designPolicy{}, Rounds: 4, Drift: drift, Cache: engine.NewCache()}
		mutate(&cfg)
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 45), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}

	want := referenceLedger(t, archetypePopulation(t, 45), engine.Config{Policy: &designPolicy{}, Rounds: 4, Drift: drift})
	variants := map[string]func(*engine.Config){
		"memo":    func(cfg *engine.Config) { cfg.Memo = engine.NewRespondMemo() },
		"no-memo": func(cfg *engine.Config) {},
	}
	for name, mutate := range variants {
		if got := run(mutate); !reflect.DeepEqual(got, want) {
			t.Errorf("%s ledger diverges from reference", name)
		}
	}
}

// TestRespondMemoDriftInvalidation pins the key-based invalidation rule:
// a drift that changes an agent's reservation or ψ mints a new design
// fingerprint, so the stale memo entry is never looked up again. A memo
// that (incorrectly) kept serving the round-0 response would reproduce the
// round-0 utility; the real run's utility visibly moves.
func TestRespondMemoDriftInvalidation(t *testing.T) {
	ctx := context.Background()
	psi2, err := effort.NewQuadratic(-0.02, 1.8, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	drift := func(round int, pop *engine.Population) {
		switch round {
		case 1:
			// Raise the outside option: designs re-lift, responses change.
			for _, a := range pop.Agents {
				a.Reservation = 5
			}
		case 2:
			// Change the effort→feedback curve itself.
			for _, a := range pop.Agents {
				a.Psi = psi2
			}
		}
	}
	run := func(memo *engine.RespondMemo) []engine.Round {
		t.Helper()
		cfg := engine.Config{Policy: &designPolicy{}, Rounds: 3, Drift: drift, Cache: engine.NewCache(), Memo: memo}
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 30), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}

	memo := engine.NewRespondMemo()
	got := run(memo)
	want := referenceLedger(t, archetypePopulation(t, 30), engine.Config{Policy: &designPolicy{}, Rounds: 3, Drift: drift})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("memoized ledger diverges from reference under drift")
	}
	if got[1].Utility == got[0].Utility {
		t.Error("reservation drift left Utility unchanged — stale memo entry served?")
	}
	if got[2].Utility == got[1].Utility {
		t.Error("ψ drift left Utility unchanged — stale memo entry served?")
	}
	// Each drifted round mints three fresh keys: 3 cold + 3 + 3.
	if stats := memo.Stats(); stats.Misses != 9 {
		t.Errorf("misses = %d, want 9 (3 archetypes × 3 distinct parameterizations)", stats.Misses)
	}
}

// TestRespondMemoBypassedByResponder pins the dispatch rule: a custom
// Responder may be round-dependent, so the memo must not serve or store
// responses for it — its counters stay at zero.
func TestRespondMemoBypassedByResponder(t *testing.T) {
	memo := engine.NewRespondMemo()
	responder := func(round int, a *worker.Agent, c *contract.PiecewiseLinear, part effort.Partition) (float64, error) {
		return 10, nil
	}
	_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 12), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    2,
		Responder: responder,
		Memo:      memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats := memo.Stats(); stats.Hits != 0 || stats.Misses != 0 || stats.Entries != 0 {
		t.Errorf("custom Responder must bypass the memo entirely, got %+v", stats)
	}
}

// TestResponderClampedEfforts pins the clamp on the hook path, where the
// Responder runs sequentially shard by shard: out-of-range strategy
// efforts (negative, NaN, beyond the feasible range) are clamped to
// [0, min(mδ, apex of ψ)], exactly as the reference round clamps them.
func TestResponderClampedEfforts(t *testing.T) {
	pop := archetypePopulation(t, 9)
	yMax := pop.Part.YMax()
	efforts := []float64{-5, math.NaN(), 1e9, 7}
	t.Run("sequential", func(t *testing.T) {
		responder := func(r int, a *worker.Agent, c *contract.PiecewiseLinear, part effort.Partition) (float64, error) {
			return efforts[r], nil
		}
		cfg := engine.Config{Policy: &designPolicy{}, Rounds: len(efforts), Responder: responder}
		got, err := engine.RunLedger(context.Background(), archetypePopulation(t, 9), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r, want := range []float64{0, 0, yMax, 7} {
			for _, oc := range got[r].Outcomes {
				if oc.Effort != want {
					t.Errorf("round %d agent %s: effort = %v, want %v (clamped)", r, oc.AgentID, oc.Effort, want)
				}
			}
		}
		cfg.Policy = &designPolicy{}
		if ref := referenceLedger(t, archetypePopulation(t, 9), cfg); !reflect.DeepEqual(got, ref) {
			t.Error("clamped ledger differs from reference")
		}
	})
}

// TestLedgerCopiesReusedOutcomes pins the aliasing contract: the engine
// reuses one Outcomes backing array across rounds, and Ledger copies it in
// OnRoundEnd — so earlier rounds keep their own values after later rounds
// overwrite the buffer.
func TestLedgerCopiesReusedOutcomes(t *testing.T) {
	drift := func(round int, pop *engine.Population) {
		if round == 0 {
			return
		}
		for _, a := range pop.Agents {
			pop.Weights[a.ID] *= 2
		}
	}
	ledger, err := engine.RunLedger(context.Background(), archetypePopulation(t, 6), engine.Config{
		Policy: &designPolicy{},
		Rounds: 2,
		Drift:  drift,
		Memo:   engine.NewRespondMemo(),
		Cache:  engine.NewCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if &ledger[0].Outcomes[0] == &ledger[1].Outcomes[0] {
		t.Fatal("rounds share an Outcomes backing array — Ledger did not copy")
	}
	for i := range ledger[0].Outcomes {
		w0 := ledger[0].Outcomes[i].Weight
		w1 := ledger[1].Outcomes[i].Weight
		if w1 != 2*w0 {
			t.Errorf("agent %s: round-1 weight %v != 2 × round-0 weight %v — buffer reuse clobbered round 0",
				ledger[0].Outcomes[i].AgentID, w1, w0)
		}
	}
}

// TestRespondMemoConcurrent hammers one shared memo from concurrent
// engines (each with four shards on the fan-out) plus raw
// Get/Put/Stats/Invalidate callers; run under -race (make check) it pins
// the memo's thread safety.
func TestRespondMemoConcurrent(t *testing.T) {
	memo := engine.NewRespondMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drift := func(round int, pop *engine.Population) {
				if round == 0 {
					return
				}
				for _, a := range pop.Agents {
					pop.Weights[a.ID] *= 1.01 // fresh keys → concurrent Puts
				}
			}
			_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 30), engine.Config{
				Policy: &designPolicy{},
				Rounds: 5,
				Drift:  drift,
				Cache:  engine.NewCache(),
				Memo:   memo,
				Shards: 4,
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				memo.Stats()
				if i%50 == 49 {
					memo.Invalidate()
				}
			}
		}()
	}
	wg.Wait()
}

// TestRespondMemoCapFlush pins the size bound: crossing MaxEntries flushes
// the map (counters preserved), so a drifting run cannot grow it without
// bound.
func TestRespondMemoCapFlush(t *testing.T) {
	memo := &engine.RespondMemo{MaxEntries: 4}
	drift := func(round int, pop *engine.Population) {
		if round == 0 {
			return
		}
		// β drift: 3 fresh design keys per round. (Weight drift would not
		// re-key the memo — μ and w are not part of a response's key.)
		for _, a := range pop.Agents {
			a.Beta *= 1.1
		}
	}
	_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 9), engine.Config{
		Policy: &designPolicy{},
		Rounds: 6,
		Drift:  drift,
		Cache:  engine.NewCache(),
		Memo:   memo,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := memo.Stats()
	if stats.Entries > 4 {
		t.Errorf("entries = %d exceeds MaxEntries = 4", stats.Entries)
	}
	if stats.Misses != 6*3 {
		t.Errorf("misses = %d, want 18 (every round re-keyed)", stats.Misses)
	}
}

// TestRespondMemoExportTo mirrors TestCacheExportTo: with Config.Metrics
// set the engine adopts the memo's live counters, so the registry snapshot
// and Stats() read the same numbers.
func TestRespondMemoExportTo(t *testing.T) {
	reg := telemetry.NewRegistry()
	memo := engine.NewRespondMemo()
	_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 30), engine.Config{
		Policy:  &designPolicy{},
		Rounds:  3,
		Cache:   engine.NewCache(),
		Memo:    memo,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := memo.Stats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("archetype population must hit and miss the memo, got %+v", stats)
	}
	s := reg.Snapshot()
	if got := s.Counters[engine.MetricRespondHits]; got != stats.Hits {
		t.Errorf("registry hits = %d, Stats().Hits = %d", got, stats.Hits)
	}
	if got := s.Counters[engine.MetricRespondMisses]; got != stats.Misses {
		t.Errorf("registry misses = %d, Stats().Misses = %d", got, stats.Misses)
	}
	if got := int(s.Gauges[engine.MetricRespondEntries]); got != stats.Entries {
		t.Errorf("registry entries = %d, Stats().Entries = %d", got, stats.Entries)
	}
}

// TestWarmRoundZeroAllocs pins the zero-alloc warm-round guarantee: a
// cache+memo engine with no metrics and no observers, once warmed,
// allocates nothing per Run — the sorted view, the outcomes buffer, the
// contracts map, and the respond scratch are all reused.
func TestWarmRoundZeroAllocs(t *testing.T) {
	pop := archetypePopulation(t, 120)
	ctx := context.Background()
	eng, err := engine.New(pop, engine.Config{
		Policy: &designPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil { // warm: design + respond once
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
