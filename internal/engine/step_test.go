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

// TestDesignBatch pins the batch design entry: results are index-aligned,
// identical fingerprints share one contract pointer, the shared cache
// serves repeat batches without new solves, and concurrent batches against
// one designer race-cleanly (exercised under -race).
func TestDesignBatch(t *testing.T) {
	pop := archetypePopulation(t, 6)
	cache := engine.NewCache()
	d := &engine.Designer{Cache: cache}

	var reqs []engine.DesignRequest
	for _, a := range pop.Agents {
		reqs = append(reqs, engine.DesignRequest{Agent: a, W: pop.Weights[a.ID]})
	}
	ctx := context.Background()
	got, err := d.DesignBatch(ctx, pop.Part, pop.Mu, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("DesignBatch returned %d contracts for %d requests", len(got), len(reqs))
	}
	// Archetypes repeat every 3 agents: same fingerprint, same pointer.
	for i := 3; i < len(got); i++ {
		if got[i] != got[i-3] {
			t.Errorf("request %d did not dedup against request %d", i, i-3)
		}
	}
	// A cold batch with k distinct fingerprints costs exactly k misses.
	if s := cache.Stats(); s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("cold batch stats = %+v, want 3 misses / 3 entries", s)
	}

	// The batch result matches the per-agent reference design.
	for i, rq := range reqs {
		ref, err := core.Design(rq.Agent, core.Config{Part: pop.Part, Mu: pop.Mu, W: rq.W})
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(ref.Contract) {
			t.Errorf("agent %s: batch contract differs from core.Design", rq.Agent.ID)
		}
	}

	// Warm batches — including concurrent ones — are all cache hits.
	misses := cache.Stats().Misses
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			_, err := d.DesignBatch(ctx, pop.Part, pop.Mu, reqs)
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != misses {
		t.Errorf("warm batches added misses: %d -> %d", misses, s.Misses)
	}
}

// TestDesignBatchConcurrentColdBuildsOnce pins the build-once claim on a
// cold cache: concurrent batches that share 3 design keys, each at its own
// weights, build each menu exactly once between them, and every batch's
// answers equal core.Design's.
func TestDesignBatchConcurrentColdBuildsOnce(t *testing.T) {
	pop := archetypePopulation(t, 6)
	cache := engine.NewCache()
	d := &engine.Designer{Cache: cache}
	ctx := context.Background()
	const batches = 8
	reqs := make([][]engine.DesignRequest, batches)
	got := make([][]*contract.PiecewiseLinear, batches)
	errs := make(chan error, batches)
	for g := range reqs {
		for i, a := range pop.Agents {
			reqs[g] = append(reqs[g], engine.DesignRequest{Agent: a, W: 0.1 + 0.3*float64(g) + 0.01*float64(i)})
		}
		go func() {
			var err error
			got[g], err = d.DesignBatch(ctx, pop.Part, pop.Mu, reqs[g])
			errs <- err
		}()
	}
	for range reqs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if s := cache.Stats(); s.Misses != 3 || s.Entries != 3 {
		t.Fatalf("concurrent cold batches: %+v, want 3 menu builds / 3 menus", s)
	}
	for g := range reqs {
		for i, rq := range reqs[g] {
			ref, err := core.Design(rq.Agent, core.Config{Part: pop.Part, Mu: pop.Mu, W: rq.W})
			if err != nil {
				t.Fatal(err)
			}
			if !got[g][i].Equal(ref.Contract) {
				t.Fatalf("batch %d agent %s: contract differs from core.Design", g, rq.Agent.ID)
			}
		}
	}
}

// TestDesignBatchForeignAgent checks that DesignBatch serves queries for
// agents outside any population — the serving layer's inline-spec path.
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
	got, err := d.DesignBatch(context.Background(), pop.Part, pop.Mu, []engine.DesignRequest{{Agent: a, W: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] == nil {
		t.Fatalf("DesignBatch = %v, want one non-nil contract", got)
	}
}
