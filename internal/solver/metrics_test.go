package solver

import (
	"context"
	"math"
	"testing"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// TestSolveAllMetrics pins the pool's instrumentation: with Options.Metrics
// set, every subproblem that actually runs increments MetricDesigns,
// failures increment MetricDesignErrors, and each design's latency lands in
// MetricDesignSeconds.
func TestSolveAllMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	subs := solverFixture(t, 12)
	subs[3].Config.Mu = -1
	subs[9].Config.Mu = -1
	outcomes, err := SolveAll(context.Background(), subs, Options{
		Parallelism:     3,
		ContinueOnError: true,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricDesigns]; got != uint64(len(subs)) {
		t.Errorf("%s = %d, want %d", MetricDesigns, got, len(subs))
	}
	if got := s.Counters[MetricDesignErrors]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricDesignErrors, got)
	}
	h, ok := s.Histograms[MetricDesignSeconds]
	if !ok {
		t.Fatalf("missing histogram %s", MetricDesignSeconds)
	}
	if h.Count != uint64(len(subs)) {
		t.Errorf("%s count = %d, want %d", MetricDesignSeconds, h.Count, len(subs))
	}
	if h.Sum < 0 || math.IsNaN(h.Sum) || math.IsInf(h.Sum, 0) {
		t.Errorf("%s sum = %v, want finite ≥ 0", MetricDesignSeconds, h.Sum)
	}
	// One SolveAll call = one batch-size observation carrying the
	// subproblem count.
	bh, ok := s.Histograms[MetricBatchSize]
	if !ok {
		t.Fatalf("missing histogram %s", MetricBatchSize)
	}
	if bh.Count != 1 || bh.Sum != float64(len(subs)) {
		t.Errorf("%s count/sum = %d/%v, want 1/%d", MetricBatchSize, bh.Count, bh.Sum, len(subs))
	}

	// The instrumented outcomes must match an un-instrumented run.
	clean := solverFixture(t, 12)
	want, err := SolveAll(context.Background(), clean, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range outcomes {
		if i == 3 || i == 9 {
			continue
		}
		if oc.Result.RequesterUtility != want[i].Result.RequesterUtility {
			t.Errorf("outcome %d: instrumented utility %v != plain %v",
				i, oc.Result.RequesterUtility, want[i].Result.RequesterUtility)
		}
	}
}

// TestSolveAllSequentialScratch pins the Parallelism=1 fast path: every
// design runs inline over the caller's scratch (no goroutines), outcomes
// — including per-entry errors under ContinueOnError — match the pooled
// route, and the metrics counters stay in parity.
func TestSolveAllSequentialScratch(t *testing.T) {
	subs := solverFixture(t, 10)
	subs[4].Config.Mu = -1
	reg := telemetry.NewRegistry()
	scratch := &core.Scratch{}
	outcomes, err := SolveAll(context.Background(), subs, Options{
		Parallelism:     1,
		ContinueOnError: true,
		Metrics:         reg,
		Scratch:         scratch,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The failing subproblem bails in config validation before the
	// scratch is touched; the other nine designs all reuse it.
	if got := scratch.Uses(); got != 9 {
		t.Errorf("scratch uses = %d, want 9", got)
	}
	s := reg.Snapshot()
	if got := s.Counters[MetricDesigns]; got != uint64(len(subs)) {
		t.Errorf("%s = %d, want %d", MetricDesigns, got, len(subs))
	}
	if got := s.Counters[MetricDesignErrors]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricDesignErrors, got)
	}

	pooled, err := SolveAll(context.Background(), subs, Options{Parallelism: 4, ContinueOnError: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range outcomes {
		seqErr, poolErr := outcomes[i].Err, pooled[i].Err
		if (seqErr == nil) != (poolErr == nil) {
			t.Fatalf("outcome %d: sequential err %v, pooled err %v", i, seqErr, poolErr)
		}
		if seqErr != nil {
			if seqErr.Error() != poolErr.Error() {
				t.Errorf("outcome %d: error %q != pooled %q", i, seqErr, poolErr)
			}
			continue
		}
		if outcomes[i].Result.RequesterUtility != pooled[i].Result.RequesterUtility {
			t.Errorf("outcome %d: sequential utility %v != pooled %v",
				i, outcomes[i].Result.RequesterUtility, pooled[i].Result.RequesterUtility)
		}
	}
}

// degenerateSub builds a subproblem whose feedback knots collapse in
// float64: ψ passes Quadratic.Validate (the derivative stays positive),
// but its huge constant term makes the per-knot increment r1·δ vanish
// below one ulp of R0, so every candidate's contract fails validation
// on non-increasing knots.
func degenerateSub(t *testing.T) Subproblem {
	t.Helper()
	part, err := effort.NewPartition(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	psi, err := effort.NewQuadratic(-0.02, 2, 1e17, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewHonest("degenerate", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	return Subproblem{Agent: a, Config: core.Config{Part: part, Mu: 1, W: 1}}
}

// TestSolveAllScalarFallbackMetric pins how the pool counts designs that
// fail in construction. SolveAll reports each one as a design error with
// ReferenceDesign's exact text, on both the sequential and pooled routes.
// BuildMenusInto builds their menus without error — each carries the
// design error for its picks — so it counts no design error.
func TestSolveAllScalarFallbackMetric(t *testing.T) {
	subs := solverFixture(t, 6)
	subs[1] = degenerateSub(t)
	subs[4] = degenerateSub(t)
	refErr := func(i int) error {
		_, err := core.ReferenceDesign(subs[i].Agent, subs[i].Config)
		if err == nil {
			t.Fatalf("subproblem %d: reference designed a degenerate ψ", i)
		}
		return err
	}

	for name, par := range map[string]int{"sequential": 1, "pooled": 3} {
		reg := telemetry.NewRegistry()
		outcomes, err := SolveAll(context.Background(), subs, Options{
			Parallelism:     par,
			ContinueOnError: true,
			Metrics:         reg,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := reg.Snapshot()
		if got := s.Counters[MetricDesigns]; got != 6 {
			t.Errorf("%s: %s = %d, want 6", name, MetricDesigns, got)
		}
		if got := s.Counters[MetricDesignErrors]; got != 2 {
			t.Errorf("%s: %s = %d, want 2", name, MetricDesignErrors, got)
		}
		for _, i := range []int{1, 4} {
			want := refErr(i)
			if got := outcomes[i].Err; got == nil || got.Error() != want.Error() {
				t.Errorf("%s: outcome %d error %v, want %q", name, i, got, want)
			}
		}

		reg = telemetry.NewRegistry()
		menus := make([]Outcome, len(subs))
		if err := BuildMenusInto(context.Background(), subs, menus, Options{Parallelism: par, Metrics: reg}); err != nil {
			t.Fatalf("%s: BuildMenusInto: %v", name, err)
		}
		if got := reg.Snapshot().Counters[MetricDesignErrors]; got != 0 {
			t.Errorf("%s: menus: %s = %d, want 0", name, MetricDesignErrors, got)
		}
		for _, i := range []int{1, 4} {
			want := refErr(i)
			if _, got := menus[i].Menu.ContractFor(subs[i].Config); got == nil || got.Error() != want.Error() {
				t.Errorf("%s: menu %d error %v, want %q", name, i, got, want)
			}
		}
	}
}

// TestSolveAllNopMetrics checks the disabled path: telemetry.Nop behaves
// exactly like no registry at all.
func TestSolveAllNopMetrics(t *testing.T) {
	subs := solverFixture(t, 6)
	outcomes, err := SolveAll(context.Background(), subs, Options{Metrics: telemetry.Nop})
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range outcomes {
		if oc.Err != nil || oc.Result == nil {
			t.Errorf("outcome %d: %+v", i, oc)
		}
	}
}
