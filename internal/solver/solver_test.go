package solver

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

func solverFixture(t *testing.T, n int) []Subproblem {
	t.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]Subproblem, n)
	for i := range subs {
		a, err := worker.NewHonest(fmt.Sprintf("w%03d", i), psi, 1, part.YMax())
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = Subproblem{
			Agent:  a,
			Config: core.Config{Part: part, Mu: 1, W: 1 + float64(i%5)*0.1},
		}
	}
	return subs
}

func TestSolveAllMatchesSequential(t *testing.T) {
	subs := solverFixture(t, 50)
	outcomes, err := SolveAll(context.Background(), subs, Options{Parallelism: 8})
	if err != nil {
		t.Fatalf("SolveAll: %v", err)
	}
	if len(outcomes) != len(subs) {
		t.Fatalf("outcomes = %d, want %d", len(outcomes), len(subs))
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("subproblem %d failed: %v", i, o.Err)
		}
		seq, err := core.ReferenceDesign(subs[i].Agent, subs[i].Config)
		if err != nil {
			t.Fatalf("sequential %d: %v", i, err)
		}
		if o.Result.KOpt != seq.KOpt {
			t.Errorf("subproblem %d: parallel KOpt %d != sequential %d", i, o.Result.KOpt, seq.KOpt)
		}
		if o.Result.RequesterUtility != seq.RequesterUtility {
			t.Errorf("subproblem %d: utilities differ", i)
		}
		if o.Index != i {
			t.Errorf("outcome %d has index %d", i, o.Index)
		}
	}
}

func TestSolveAllEmpty(t *testing.T) {
	outcomes, err := SolveAll(context.Background(), nil, Options{})
	if err != nil || len(outcomes) != 0 {
		t.Fatalf("empty input: %v, %v", outcomes, err)
	}
}

func TestSolveAllDefaultParallelism(t *testing.T) {
	subs := solverFixture(t, 5)
	outcomes, err := SolveAll(context.Background(), subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(Results(outcomes)) != 5 {
		t.Errorf("results = %d, want 5", len(Results(outcomes)))
	}
}

func TestSolveAllFailFast(t *testing.T) {
	subs := solverFixture(t, 20)
	// Poison one subproblem.
	subs[7].Config.Mu = -1
	_, err := SolveAll(context.Background(), subs, Options{Parallelism: 4})
	if err == nil {
		t.Fatal("poisoned subproblem: want error")
	}
	if !errors.Is(err, core.ErrBadConfig) {
		t.Errorf("err = %v, want wrapped ErrBadConfig", err)
	}
}

func TestSolveAllContinueOnError(t *testing.T) {
	subs := solverFixture(t, 12)
	subs[3].Config.Mu = -1
	subs[9].Config.Mu = -1
	outcomes, err := SolveAll(context.Background(), subs, Options{Parallelism: 3, ContinueOnError: true})
	if err != nil {
		t.Fatalf("ContinueOnError returned top-level error: %v", err)
	}
	if got := len(Results(outcomes)); got != 10 {
		t.Errorf("successes = %d, want 10", got)
	}
	joined := Errs(outcomes)
	if joined == nil {
		t.Fatal("Errs = nil, want aggregate error")
	}
	if !errors.Is(joined, core.ErrBadConfig) {
		t.Errorf("aggregate error %v does not wrap ErrBadConfig", joined)
	}
	if outcomes[3].Err == nil || outcomes[9].Err == nil {
		t.Error("poisoned entries lack errors")
	}
}

func TestSolveAllPreCancelled(t *testing.T) {
	subs := solverFixture(t, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outcomes, err := SolveAll(ctx, subs, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("cancelled context: want error")
	}
	if !errors.Is(err, ErrCancelled) && !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want cancellation", err)
	}
	for _, o := range outcomes {
		if o.Err == nil {
			// Workers may have completed a few before observing
			// cancellation; that is acceptable — but with a pre-cancelled
			// context the pool should not start any work.
			t.Errorf("subproblem %d completed under pre-cancelled context", o.Index)
		}
	}
}

func TestErrsNilWhenClean(t *testing.T) {
	outcomes := []Outcome{{Index: 0}, {Index: 1}}
	if err := Errs(outcomes); err != nil {
		t.Errorf("Errs = %v, want nil", err)
	}
}

func TestSolveAllParallelismOne(t *testing.T) {
	subs := solverFixture(t, 8)
	outcomes, err := SolveAll(context.Background(), subs, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(Results(outcomes)) != 8 {
		t.Error("sequential-mode pool lost results")
	}
}

func TestSolveAllManyMoreWorkersThanTasks(t *testing.T) {
	subs := solverFixture(t, 3)
	outcomes, err := SolveAll(context.Background(), subs, Options{Parallelism: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(Results(outcomes)) != 3 {
		t.Error("oversized pool lost results")
	}
}

func TestSolveAllIntoMatchesSolveAll(t *testing.T) {
	subs := solverFixture(t, 20)
	ctx := context.Background()
	want, err := SolveAll(ctx, subs, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Oversized, poisoned buffer: every fed entry must be overwritten.
	buf := make([]Outcome, 32)
	for i := range buf {
		buf[i] = Outcome{Index: -1, Err: errors.New("stale")}
	}
	if err := SolveAllInto(ctx, subs, buf, Options{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	for i := range subs {
		got := buf[i]
		if got.Index != i || got.Err != nil || got.Result == nil {
			t.Fatalf("outcome %d = {Index:%d Err:%v Result:%v}", i, got.Index, got.Err, got.Result != nil)
		}
		if got.Result.Contract.Eval(1) != want[i].Result.Contract.Eval(1) {
			t.Errorf("outcome %d diverges from SolveAll", i)
		}
	}
	// The slack beyond len(subs) is untouched.
	if buf[len(subs)].Index != -1 {
		t.Error("buffer slack was overwritten")
	}
}

func TestSolveAllIntoShortBuffer(t *testing.T) {
	subs := solverFixture(t, 5)
	buf := make([]Outcome, 3)
	if err := SolveAllInto(context.Background(), subs, buf, Options{}); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestSolveAllIntoReuse(t *testing.T) {
	// The engine's hot loop reuses one buffer across rounds; a second call
	// with fewer subproblems must still fully overwrite its prefix.
	ctx := context.Background()
	buf := make([]Outcome, 16)
	if err := SolveAllInto(ctx, solverFixture(t, 16), buf, Options{}); err != nil {
		t.Fatal(err)
	}
	subs := solverFixture(t, 4)
	if err := SolveAllInto(ctx, subs, buf, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := range subs {
		if buf[i].Index != i || buf[i].Result == nil {
			t.Fatalf("reused buffer entry %d not overwritten: %+v", i, buf[i])
		}
	}
}

// Both cancellation paths — worker-observed (a worker pulled the index but
// saw ctx.Err before designing) and unfed (the feeder marked the tail after
// cancellation) — must produce errors satisfying errors.Is for BOTH
// ErrCancelled and the underlying context cause.
func TestCancellationErrorsWrapBothSentinels(t *testing.T) {
	subs := solverFixture(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// ContinueOnError keeps per-entry errors in place without a pool-level
	// short-circuit, so every entry is marked by whichever path saw it.
	outcomes, err := SolveAll(ctx, subs, Options{Parallelism: 4, ContinueOnError: true})
	if err != nil {
		t.Fatalf("ContinueOnError returned top-level error: %v", err)
	}
	for _, o := range outcomes {
		if o.Err == nil {
			t.Fatalf("subproblem %d ran under pre-cancelled context", o.Index)
		}
		if !errors.Is(o.Err, ErrCancelled) {
			t.Errorf("subproblem %d: %v does not wrap ErrCancelled", o.Index, o.Err)
		}
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("subproblem %d: %v does not wrap context.Canceled", o.Index, o.Err)
		}
	}
}

// The pool-level return for a cancelled run wraps the same way.
func TestPoolLevelCancellationWrapsBothSentinels(t *testing.T) {
	subs := solverFixture(t, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveAll(ctx, subs, Options{Parallelism: 2})
	if err == nil {
		t.Fatal("cancelled context: want error")
	}
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("err = %v, want wrapped ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", err)
	}
}

// A deadline-based cancellation surfaces context.DeadlineExceeded through
// the same wrap, and unfed entries carry it too.
func TestDeadlineCancellationWrapsCause(t *testing.T) {
	subs := solverFixture(t, 32)
	ctx, cancel := context.WithTimeout(context.Background(), -time.Millisecond)
	defer cancel()
	outcomes, err := SolveAll(ctx, subs, Options{Parallelism: 3, ContinueOnError: true})
	if err != nil {
		t.Fatalf("ContinueOnError returned top-level error: %v", err)
	}
	for _, o := range outcomes {
		if !errors.Is(o.Err, ErrCancelled) || !errors.Is(o.Err, context.DeadlineExceeded) {
			t.Errorf("subproblem %d: %v, want ErrCancelled wrapping DeadlineExceeded", o.Index, o.Err)
		}
	}
}
