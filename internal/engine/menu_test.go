package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/solver"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// weightDriftPopulation is a 3-archetype population — 3 design keys —
// where every agent carries its own requester weight.
func weightDriftPopulation(tb testing.TB, n int) *engine.Population {
	tb.Helper()
	pop := archetypePopulation(tb, n)
	for i, a := range pop.Agents {
		pop.Weights[a.ID] = 0.2 + float64(i)*1e-4
	}
	return pop
}

// weightDriftSchedule is a Drift hook that, from round 1 on, declares
// fresh weights for 1% of the agents through Population.Touch — the shape
// of the paper's dynamic loop, which rewrites weights from the reputation
// tracker every round. Every fresh weight is new to the run, and one per
// round is negative.
func weightDriftSchedule(n int) func(int, *engine.Population) {
	return func(r int, pop *engine.Population) {
		if r == 0 {
			return
		}
		k := max(1, n/100)
		ids := make([]string, 0, k)
		for j := 0; j < k; j++ {
			a := pop.Agents[(r*37+j*101)%len(pop.Agents)]
			w := 0.3 + float64(r)*1e-3 + float64(j)*1e-6
			if j == 0 {
				w = -w
			}
			pop.Weights[a.ID] = w
			ids = append(ids, a.ID)
		}
		pop.Touch(ids...)
	}
}

// TestWeightDriftKeepsMenus is the mechanism guard for the weight-free
// menus: on persistent engines whose agents all carry distinct weights
// over 3 design keys, 300 rounds of declared 1% weight drift build the 3
// menus in the first round and never again. The cache holds at most the
// 3 menus — so the small MaxEntries cap is never crossed and weight drift
// cannot trigger the flush cliff — the memo at most one response per
// (key, candidate), and every ledger equals the naive reference's.
func TestWeightDriftKeepsMenus(t *testing.T) {
	const (
		n      = 2000
		rounds = 300
		keys   = 3
	)
	ref := referenceLedger(t, weightDriftPopulation(t, n), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
		Drift:  weightDriftSchedule(n),
	})
	const name = "engine"
	pop := weightDriftPopulation(t, n)
	cache := &engine.Cache{MaxEntries: 64}
	memo := engine.NewRespondMemo()
	watch := &menuWatch{t: t, name: name, cache: cache, memo: memo, keys: keys, memoCap: keys * pop.Part.M}
	led := &engine.Ledger{}
	eng, err := engine.New(pop, engine.Config{
		Policy:    &viewDesignPolicy{},
		Rounds:    rounds,
		Drift:     weightDriftSchedule(n),
		Cache:     cache,
		Memo:      memo,
		Observers: []engine.Observer{watch, led},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if watch.rounds != rounds {
		t.Fatalf("%s: watched %d rounds, want %d", name, watch.rounds, rounds)
	}
	if !reflect.DeepEqual(led.Rounds, ref) {
		t.Errorf("%s: ledger differs from reference", name)
	}
}

// menuWatch asserts the cache and memo bounds after every round.
type menuWatch struct {
	t             *testing.T
	name          string
	cache         *engine.Cache
	memo          *engine.RespondMemo
	keys, memoCap int
	rounds        int
	failed        bool // report only the first violation
}

func (w *menuWatch) OnContracts(int, map[string]*contract.PiecewiseLinear) {}
func (w *menuWatch) OnOutcome(int, engine.AgentOutcome)                    {}
func (w *menuWatch) OnRoundEnd(r engine.Round) error {
	w.rounds++
	cs, ms := w.cache.Stats(), w.memo.Stats()
	var msg string
	switch {
	case cs.Misses != uint64(w.keys):
		msg = fmt.Sprintf("%d menu builds, want %d", cs.Misses, w.keys)
	case cs.Entries > w.keys:
		msg = fmt.Sprintf("cache holds %d menus, want <= %d", cs.Entries, w.keys)
	case ms.Entries > w.memoCap:
		msg = fmt.Sprintf("memo holds %d responses, want <= %d", ms.Entries, w.memoCap)
	}
	if msg != "" && !w.failed {
		w.failed = true
		w.t.Errorf("%s round %d: %s", w.name, r.Index, msg)
	}
	return nil
}

// TestFallbackPicksCount pins what a key whose design fails costs on the
// menu path: a degenerate ψ builds one menu, which carries the design
// error and is cached like any other; the first query misses and builds
// it, the second hits, and each answers ReferenceDesign's error under the
// engine's wrap. A menu that carries an error is a built menu, not a
// failed solve, so dyncontract_solver_design_errors_total stays 0.
func TestFallbackPicksCount(t *testing.T) {
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := effort.NewQuadratic(-1e-12, 1e-3, 1e16, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewHonest("degenerate", flat, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cache := engine.NewCache()
	d := &engine.Designer{Parallelism: 1, Cache: cache, Metrics: reg}
	_, refErr := core.ReferenceDesign(a, core.Config{Part: part, Mu: 1, W: 2})
	if refErr == nil {
		t.Fatal("degenerate ψ designed; the case proves nothing")
	}
	want := "engine: design for agent degenerate: " + refErr.Error()
	for round := 1; round <= 2; round++ {
		if c, err := d.Design(context.Background(), part, 1, a, 2); err == nil || err.Error() != want {
			t.Fatalf("round %d: Designer.Design = (%v, %v), want error %q", round, c, err, want)
		}
		s := reg.Snapshot()
		if n := s.Counters[solver.MetricDesigns]; n != 1 {
			t.Errorf("round %d: %s = %d, want 1 menu build", round, solver.MetricDesigns, n)
		}
		if n := s.Counters[solver.MetricDesignErrors]; n != 0 {
			t.Errorf("round %d: %s = %d, want 0", round, solver.MetricDesignErrors, n)
		}
		if st := cache.Stats(); st.Misses != 1 || st.Hits != uint64(round-1) {
			t.Errorf("round %d: cache stats = %+v, want 1 miss and %d hits", round, st, round-1)
		}
	}
}
