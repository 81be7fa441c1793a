// Package solver runs the decomposed contract-design problem in parallel.
//
// §IV-B shows the requester's bilevel program separates across workers and
// collusive communities: each subproblem designs one agent's contract
// independently. With tens of thousands of workers (the paper's trace has
// 19,686 reviewers) the subproblems are fanned out across a bounded worker
// pool; the pool honours context cancellation and aggregates per-subproblem
// failures without losing the successes.
package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dyncontract/internal/core"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// Metric names exported by the solver pool when Options.Metrics is set,
// following the repo-wide dyncontract_<pkg>_<name> scheme.
const (
	// MetricDesigns counts completed solves — whole designs or menu
	// builds, success or failure; cache hits upstream never reach the
	// pool, so this is the number of solves that actually ran.
	MetricDesigns = "dyncontract_solver_designs_total"
	// MetricDesignErrors counts failed core.Design calls.
	MetricDesignErrors = "dyncontract_solver_design_errors_total"
	// MetricDesignSeconds is the per-subproblem design latency histogram.
	MetricDesignSeconds = "dyncontract_solver_design_seconds"
	// MetricBatchSize is the per-call batch-size histogram: how many
	// subproblems each SolveAllInto or BuildMenusInto invocation carried.
	// Cold rounds show the distinct design keys that missed the cache here;
	// a cold serving-layer design query builds its one key.
	MetricBatchSize = "dyncontract_solver_batch_size"
	// MetricScalarFallbacks counts runs of the scalar core.Design path
	// (core.Scratch.Fallbacks) where the batched structure-of-arrays solve
	// cannot reproduce the result — degenerate knots, non-finite slope
	// chains, participation lifts the flat arrays cannot reproduce. It
	// counts SolveAllInto designs routed there and the engine's picks from
	// menus BuildMenusInto marked for the fallback (building such a menu
	// runs no scalar design and counts nothing). A rate tracking
	// MetricDesigns means the population silently defeats the batched
	// cold path en masse.
	MetricScalarFallbacks = "dyncontract_solver_scalar_fallbacks_total"
	// MetricScalarFallbackSeconds is the latency histogram of exactly the
	// SolveAllInto designs that fell back to the scalar path — the slow
	// subset of MetricDesignSeconds, on the same bins, so the two
	// distributions overlay directly: a fallback-heavy population shows up
	// as this histogram's mass tracking the total's upper tail. The
	// engine's fallback picks are counted but not timed.
	MetricScalarFallbackSeconds = "dyncontract_solver_scalar_fallback_seconds"
)

// Design-latency bins: uniform over [0, 10ms) in 0.2ms steps (the
// stats.Histogram clamping convention; a m=20 design runs ~10µs, the m
// sweep in bench_ext_test.go tops out well under the clamp).
const (
	designSecondsLo   = 0
	designSecondsHi   = 0.01
	designSecondsBins = 50
)

// Batch-size bins: unit-width over [0, 64) (the stats.Histogram clamping
// convention; an archetype population's cold batches count its distinct
// design keys — single digits — and a serving-layer design query builds
// one key).
const (
	batchSizeLo   = 0
	batchSizeHi   = 64
	batchSizeBins = 64
)

// scratchPool recycles per-worker design scratch across SolveAllInto
// calls, so even the pooled (parallel) route reuses the batched solve's
// flat arrays instead of allocating them per call.
var scratchPool = sync.Pool{New: func() any { return new(core.Scratch) }}

// Subproblem is one decomposed contract-design task: an agent (worker or
// collusive meta-worker) plus its design configuration.
type Subproblem struct {
	// Agent is the worker or community meta-worker to design for.
	Agent *worker.Agent
	// Config carries the partition, μ, and this agent's requester weight.
	Config core.Config
}

// Options tunes the pool.
type Options struct {
	// Parallelism caps concurrent subproblems; 0 means GOMAXPROCS.
	Parallelism int
	// ContinueOnError keeps solving other subproblems after one fails;
	// failures are reported per-entry in Outcome.Err. When false, the
	// first failure cancels the remaining work.
	ContinueOnError bool
	// Metrics, when non-nil, receives the pool's MetricDesigns /
	// MetricDesignErrors counters, MetricDesignSeconds latency histogram,
	// and MetricBatchSize batch-size histogram. telemetry.Nop (nil)
	// disables collection.
	Metrics *telemetry.Registry
	// Scratch, when non-nil, is the reusable design scratch for the
	// sequential route: with an effective parallelism of 1 every design in
	// the call runs over it inline (no worker goroutine), which is how the
	// engine's ShardDesigner reuses one retained scratch. Ignored by the
	// parallel route, whose workers draw scratch from an internal pool.
	// The caller must not share one Scratch between concurrent calls.
	Scratch *core.Scratch
}

// Outcome pairs one subproblem with its result or error.
type Outcome struct {
	// Index is the subproblem's position in the input slice.
	Index int
	// Result is the designed contract (nil when Err != nil); SolveAll and
	// SolveAllInto fill it.
	Result *core.Result
	// Menu is the subproblem's weight-free design menu (nil when
	// Err != nil); BuildMenusInto fills it.
	Menu *core.Menu
	// Err is the subproblem's failure, if any.
	Err error
}

// ErrCancelled wraps context cancellation observed by the pool.
var ErrCancelled = errors.New("solver: cancelled")

// cancelErr is the one wrap shape for every cancellation the pool
// reports — worker-observed, unfed subproblems, and the pool-level
// return all produce `ErrCancelled: cause`, so errors.Is(err,
// ErrCancelled) and errors.Is(err, context.Canceled) both hold no
// matter which path marked the entry.
func cancelErr(cause error) error {
	return fmt.Errorf("%w: %w", ErrCancelled, cause)
}

// SolveAll designs contracts for every subproblem, in parallel, returning
// outcomes in input order. With ContinueOnError=false (default) the first
// error cancels outstanding work and is returned; with it set, SolveAll
// returns all outcomes and a nil error, leaving per-entry errors in place.
func SolveAll(ctx context.Context, subs []Subproblem, opts Options) ([]Outcome, error) {
	outcomes := make([]Outcome, len(subs))
	err := SolveAllInto(ctx, subs, outcomes, opts)
	return outcomes, err
}

// SolveAllInto is SolveAll writing into a caller-provided outcomes slice
// (len(outcomes) must be at least len(subs)), so hot loops — the engine
// solves every round — can reuse one buffer instead of allocating per
// call. Entries are fully overwritten in input order.
func SolveAllInto(ctx context.Context, subs []Subproblem, outcomes []Outcome, opts Options) error {
	return runAll(ctx, subs, outcomes, opts, design)
}

// BuildMenusInto is SolveAllInto for the weight-free half of each design:
// every subproblem's core.BuildMenu over its Config.Part (μ and w are not
// read), written to Outcome.Menu. It runs on the same pool, with the same
// error, cancellation and metric semantics. A menu marked for the scalar
// fallback is not counted here: its picks are (MetricScalarFallbacks).
func BuildMenusInto(ctx context.Context, subs []Subproblem, outcomes []Outcome, opts Options) error {
	return runAll(ctx, subs, outcomes, opts, buildMenu)
}

// task solves one subproblem over scratch s, reporting whether the solve
// took the scalar fallback. The pool sets the outcome's Index.
type task func(sub *Subproblem, s *core.Scratch) (out Outcome, fellBack bool)

func design(sub *Subproblem, s *core.Scratch) (Outcome, bool) {
	fb := s.Fallbacks()
	res, err := core.DesignInto(sub.Agent, sub.Config, s)
	return Outcome{Result: res, Err: err}, s.Fallbacks() != fb
}

func buildMenu(sub *Subproblem, s *core.Scratch) (Outcome, bool) {
	m, err := core.BuildMenu(sub.Agent, sub.Config.Part, s)
	return Outcome{Menu: m, Err: err}, false
}

// runAll is the pool behind SolveAllInto and BuildMenusInto.
func runAll(ctx context.Context, subs []Subproblem, outcomes []Outcome, opts Options, run task) error {
	n := len(subs)
	if len(outcomes) < n {
		return fmt.Errorf("solver: outcomes buffer %d shorter than %d subproblems", len(outcomes), n)
	}
	if n == 0 {
		return nil
	}
	parallelism := opts.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}

	// Resolve metric handles once per call, not per subproblem; with
	// Metrics unset the nil handles make every observation a no-op and
	// the pool skips the per-design clock reads entirely.
	var (
		designs, designErrs *telemetry.Counter
		scalarFallbacks     *telemetry.Counter
		designSec           *telemetry.Histogram
		fallbackSec         *telemetry.Histogram
	)
	timed := opts.Metrics != nil
	if timed {
		designs = opts.Metrics.Counter(MetricDesigns)
		designErrs = opts.Metrics.Counter(MetricDesignErrors)
		scalarFallbacks = opts.Metrics.Counter(MetricScalarFallbacks)
		designSec = opts.Metrics.Histogram(MetricDesignSeconds, designSecondsLo, designSecondsHi, designSecondsBins)
		fallbackSec = opts.Metrics.Histogram(MetricScalarFallbackSeconds, designSecondsLo, designSecondsHi, designSecondsBins)
		opts.Metrics.Histogram(MetricBatchSize, batchSizeLo, batchSizeHi, batchSizeBins).Observe(float64(n))
	}
	// solve runs subproblem i into outcomes[i], observing its metrics.
	solve := func(i int, scratch *core.Scratch) error {
		var t telemetry.Timer
		if timed {
			t = telemetry.StartTimer()
		}
		out, fellBack := run(&subs[i], scratch)
		out.Index = i
		if timed {
			sec := t.Seconds()
			designSec.Observe(sec)
			if fellBack {
				scalarFallbacks.Inc()
				fallbackSec.Observe(sec)
			}
			designs.Inc()
			if out.Err != nil {
				designErrs.Inc()
			}
		}
		outcomes[i] = out
		return out.Err
	}

	if parallelism == 1 {
		// Sequential route: run the batched solve inline over one scratch —
		// the caller's retained one when provided — with no goroutine or
		// channel between the subproblems. Error and cancellation shapes
		// match the pooled route exactly.
		scratch := opts.Scratch
		if scratch == nil {
			scratch = scratchPool.Get().(*core.Scratch)
			defer scratchPool.Put(scratch)
		}
		for i := range subs {
			if err := ctx.Err(); err != nil {
				for j := i; j < n; j++ {
					outcomes[j] = Outcome{Index: j, Err: cancelErr(err)}
				}
				if !opts.ContinueOnError {
					return cancelErr(err)
				}
				return nil
			}
			if err := solve(i, scratch); err != nil && !opts.ContinueOnError {
				for j := i + 1; j < n; j++ {
					outcomes[j] = Outcome{Index: j, Err: cancelErr(context.Canceled)}
				}
				return fmt.Errorf("solver: subproblem %d (%s): %w", i, subs[i].Agent.ID, err)
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	indexes := make(chan int)
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once

	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := scratchPool.Get().(*core.Scratch)
			defer scratchPool.Put(scratch)
			for i := range indexes {
				if err := ctx.Err(); err != nil {
					outcomes[i] = Outcome{Index: i, Err: cancelErr(err)}
					continue
				}
				if err := solve(i, scratch); err != nil && !opts.ContinueOnError {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("solver: subproblem %d (%s): %w", i, subs[i].Agent.ID, err)
						cancel()
					})
				}
			}
		}()
	}

feed:
	for i := range subs {
		select {
		case indexes <- i:
		case <-ctx.Done():
			// Mark unfed subproblems as cancelled.
			for j := i; j < n; j++ {
				outcomes[j] = Outcome{Index: j, Err: cancelErr(ctx.Err())}
			}
			break feed
		}
	}
	close(indexes)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil && !opts.ContinueOnError {
		return cancelErr(err)
	}
	return nil
}

// Results extracts the successful results from outcomes, preserving order
// and skipping failures.
func Results(outcomes []Outcome) []*core.Result {
	out := make([]*core.Result, 0, len(outcomes))
	for _, o := range outcomes {
		if o.Err == nil && o.Result != nil {
			out = append(out, o.Result)
		}
	}
	return out
}

// Errs collects the failures from outcomes (nil when none).
func Errs(outcomes []Outcome) error {
	var errs []error
	for _, o := range outcomes {
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("subproblem %d: %w", o.Index, o.Err))
		}
	}
	return errors.Join(errs...)
}
