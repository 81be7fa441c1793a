package engine

import (
	"context"
	"fmt"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// stubPolicy pays a flat rate to everyone — the simplest Policy, enough
// to drive the sharded view machinery the index test exercises.
type stubPolicy struct{}

func (stubPolicy) Name() string { return "stub" }

func (stubPolicy) Contracts(_ context.Context, pop *Population) (map[string]*contract.PiecewiseLinear, error) {
	c, err := contract.Flat(0, pop.Part.YMax(), 1)
	if err != nil {
		return nil, err
	}
	m := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	for _, a := range pop.Agents {
		m[a.ID] = c
	}
	return m, nil
}

// walkFPCounts recomputes the design-key refcount index the slow way —
// a full walk over every shard view — as the reference the eagerly
// maintained index must match after every kind of drift.
func walkFPCounts(e *Engine) map[DesignKey]int32 {
	m := make(map[DesignKey]int32)
	for i := range e.shards {
		for _, fp := range e.shards[i].sh.FPs {
			m[fp.DesignKey]++
		}
	}
	return m
}

func fpCountsPop(t *testing.T, n int) *Population {
	t.Helper()
	part, err := effort.NewPartition(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	psi, err := effort.NewQuadratic(-0.02, 2.1, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	pop := &Population{
		Weights:    make(map[string]float64, n),
		MaliceProb: make(map[string]float64),
		Part:       part,
		Mu:         1,
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("a%05d", i)
		a, err := worker.NewHonest(id, psi, 1+0.01*float64(i%5), part.YMax())
		if err != nil {
			t.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[id] = 0.8 + 0.05*float64(i%3)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

// TestFPCountsEager pins the eager refcount index: it exists right after
// the full rebuild (no lazy walk left to trigger), and it stays equal to
// a fresh walk of the shard views through sparse refreshes, structural
// splices, and a forced full rebuild.
func TestFPCountsEager(t *testing.T) {
	ctx := context.Background()
	pop := fpCountsPop(t, 24)
	eng, err := New(pop, Config{
		Policy: &stubPolicy{},
		Rounds: 1,
		Cache:  NewCache(),
		Memo:   NewRespondMemo(),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		if eng.fpCounts == nil {
			t.Fatalf("%s: fpCounts index is nil with a cache attached", stage)
		}
		want := walkFPCounts(eng)
		if len(eng.fpCounts) != len(want) {
			t.Fatalf("%s: index has %d design keys, walk finds %d", stage, len(eng.fpCounts), len(want))
		}
		for key, c := range want {
			if got := eng.fpCounts[key]; got != c {
				t.Fatalf("%s: design key count %d, want %d", stage, got, c)
			}
		}
	}

	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	check("after full rebuild")

	// Sparse refresh: weight drift re-mints one agent's fingerprint.
	pop.Weights["a00003"] *= 1.5
	pop.Touch("a00003")
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	check("after sparse refresh")

	// Weight drift onto an existing fingerprint: the shared count rises.
	pop.Weights["a00007"] = pop.Weights["a00003"]
	pop.Touch("a00007")
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	check("after sparse dedup refresh")

	// Structural splice: one join, one leave.
	psi := pop.Agents[0].Psi
	joined, err := worker.NewHonest("zz-join", psi, 1.3, pop.Part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	pop.Agents = append(pop.Agents, joined)
	pop.Weights[joined.ID] = 0.7
	gone := pop.Agents[0]
	pop.Agents = append(pop.Agents[:0], pop.Agents[1:]...)
	delete(pop.Weights, gone.ID)
	pop.TouchJoin(joined.ID)
	pop.TouchLeave(gone.ID)
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	check("after structural splice")

	// A Bump forces the full-rebuild path; the index must be rebuilt
	// eagerly there, not left stale or nil.
	pop.Bump()
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	check("after forced full rebuild")
}

// TestFPCountsOffWithoutCaches pins the gate: with neither a design
// cache nor a respond memo there is nothing to evict, so the index stays
// off through rebuilds and drifts alike.
func TestFPCountsOffWithoutCaches(t *testing.T) {
	ctx := context.Background()
	pop := fpCountsPop(t, 12)
	eng, err := New(pop, Config{
		Policy: &stubPolicy{},
		Rounds: 1,
		Shards: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	pop.Weights["a00002"] *= 1.2
	pop.Touch("a00002")
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	if eng.fpCounts != nil {
		t.Fatal("fpCounts index built without a cache or memo to evict from")
	}
}
