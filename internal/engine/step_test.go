package engine_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// TestStepMatchesRun pins the single-round hook: N Step calls produce a
// ledger identical to one Run over N rounds — same round indices, same
// outcomes, same totals — so a serving layer stepping a session on demand
// reproduces the batch engine exactly.
func TestStepMatchesRun(t *testing.T) {
	const rounds = 4
	ctx := context.Background()

	runLedger, err := engine.RunLedger(ctx, archetypePopulation(t, 9), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
		Cache:  engine.NewCache(),
	})
	if err != nil {
		t.Fatal(err)
	}

	led := &engine.Ledger{}
	eng, err := engine.New(archetypePopulation(t, 9), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    1, // ignored by Step; must still validate
		Cache:     engine.NewCache(),
		Observers: []engine.Observer{led},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		if err := eng.Step(ctx); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if got := eng.Stepped(); got != i+1 {
			t.Fatalf("Stepped() = %d after %d steps", got, i+1)
		}
	}

	if !reflect.DeepEqual(led.Rounds, runLedger) {
		t.Errorf("Step ledger differs from Run ledger:\nstep: %+v\nrun:  %+v", led.Rounds, runLedger)
	}
}

// TestStepErrorDoesNotAdvance pins the retry contract: a round failed by
// context cancellation leaves the counter and the ledger untouched, and a
// later Step with a live context completes that same round.
func TestStepErrorDoesNotAdvance(t *testing.T) {
	led := &engine.Ledger{}
	eng, err := engine.New(archetypePopulation(t, 6), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    1,
		Observers: []engine.Observer{led},
	})
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.Step(canceled); err == nil {
		t.Fatal("Step with canceled context succeeded")
	}
	if got := eng.Stepped(); got != 0 {
		t.Fatalf("Stepped() = %d after failed step, want 0", got)
	}
	if len(led.Rounds) != 0 {
		t.Fatalf("failed step appended %d rounds to the ledger", len(led.Rounds))
	}
	if err := eng.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(led.Rounds) != 1 || led.Rounds[0].Index != 0 {
		t.Fatalf("retried step produced ledger %+v, want one round with index 0", led.Rounds)
	}
}

// TestStepReturnsErrStopVerbatim pins the Step/Run asymmetry: Run absorbs
// ErrStop (clean completion), Step hands it to the caller, who owns the
// loop — and the stopped round still counts as completed.
func TestStepReturnsErrStopVerbatim(t *testing.T) {
	eng, err := engine.New(archetypePopulation(t, 6), engine.Config{
		Policy: &designPolicy{},
		Rounds: 1,
		Observers: []engine.Observer{engine.Hooks{
			RoundEnd: func(engine.Round) error { return engine.ErrStop },
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(context.Background()); !errors.Is(err, engine.ErrStop) {
		t.Fatalf("Step = %v, want ErrStop", err)
	}
	if got := eng.Stepped(); got != 1 {
		t.Fatalf("Stepped() = %d after stopped round, want 1", got)
	}
}

// TestDesignBatch pins the design-query entry, Designer.Design: identical
// fingerprints share one contract pointer, answers equal
// core.ReferenceDesign's, the shared cache serves repeat queries without
// new solves, and concurrent queries against one designer race-cleanly
// (exercised under -race).
func TestDesignBatch(t *testing.T) {
	pop := archetypePopulation(t, 6)
	cache := engine.NewCache()
	d := &engine.Designer{Cache: cache}
	ctx := context.Background()
	design := func() ([]*contract.PiecewiseLinear, error) {
		out := make([]*contract.PiecewiseLinear, len(pop.Agents))
		for i, a := range pop.Agents {
			c, err := d.Design(ctx, pop.Part, pop.Mu, a, pop.Weights[a.ID])
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}
	got, err := design()
	if err != nil {
		t.Fatal(err)
	}
	// Archetypes repeat every 3 agents: same fingerprint, same pointer.
	for i := 3; i < len(got); i++ {
		if got[i] != got[i-3] {
			t.Errorf("query %d did not share query %d's contract", i, i-3)
		}
	}
	// Cold queries over k distinct design keys cost exactly k misses.
	if s := cache.Stats(); s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("cold query stats = %+v, want 3 misses / 3 entries", s)
	}

	// Every answer matches the per-agent reference design.
	for i, a := range pop.Agents {
		ref, err := core.ReferenceDesign(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]})
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(ref.Contract) {
			t.Errorf("agent %s: Design differs from core.ReferenceDesign", a.ID)
		}
	}

	// Warm queries — including concurrent ones — are all cache hits.
	misses := cache.Stats().Misses
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			_, err := design()
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Errorf("warm queries added misses: %d -> %d", misses, s.Misses)
	}
}

// TestDesignBatchConcurrentColdBuildsOnce pins the build-once claim on a
// cold cache: 8 goroutines querying the same 3 design keys, each at its
// own weights, build each menu exactly once between them, and every
// answer equals core.ReferenceDesign's.
func TestDesignBatchConcurrentColdBuildsOnce(t *testing.T) {
	pop := archetypePopulation(t, 6)
	cache := engine.NewCache()
	d := &engine.Designer{Cache: cache}
	ctx := context.Background()
	const clients = 8
	weight := func(g, i int) float64 { return 0.1 + 0.3*float64(g) + 0.01*float64(i) }
	got := make([][]*contract.PiecewiseLinear, clients)
	errs := make(chan error, clients)
	for g := range got {
		got[g] = make([]*contract.PiecewiseLinear, len(pop.Agents))
		go func() {
			for i, a := range pop.Agents {
				c, err := d.Design(ctx, pop.Part, pop.Mu, a, weight(g, i))
				if err != nil {
					errs <- err
					return
				}
				got[g][i] = c
			}
			errs <- nil
		}()
	}
	for range got {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("concurrent cold queries: %+v, want 3 menu builds / 3 menus", s)
	}
	for g := range got {
		for i, a := range pop.Agents {
			ref, err := core.ReferenceDesign(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: weight(g, i)})
			if err != nil {
				t.Fatal(err)
			}
			if !got[g][i].Equal(ref.Contract) {
				t.Fatalf("client %d agent %s: contract differs from core.ReferenceDesign", g, a.ID)
			}
		}
	}
}

// TestDesignBatchForeignAgent checks that Design serves queries for agents
// outside any population — the serving layer's inline-spec path.
func TestDesignBatchForeignAgent(t *testing.T) {
	pop := archetypePopulation(t, 3)
	psi, err := effort.NewQuadratic(-0.03, 2.5, 0.5, pop.Part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewMalicious("foreign", psi, 1.2, 0.4, pop.Part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	d := &engine.Designer{}
	got, err := d.Design(context.Background(), pop.Part, pop.Mu, a, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("Design returned no contract")
	}
}
