// Package dyncontract's root benchmark harness: one benchmark per table
// and figure of the paper's evaluation (see DESIGN.md §4 for the index),
// plus micro-benchmarks for the hot paths (contract design, best response,
// parallel decomposition).
//
// Run everything with:
//
//	go test -bench=. -benchmem .
package dyncontract

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dyncontract/internal/baseline"
	"dyncontract/internal/cluster"
	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/experiments"
	"dyncontract/internal/platform"
	"dyncontract/internal/polyfit"
	"dyncontract/internal/solver"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

var (
	benchOnce sync.Once
	benchPipe *synthpop.Pipeline
	benchErr  error
)

func benchPipeline(b *testing.B) *synthpop.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe, benchErr = synthpop.BuildPipeline(synth.SmallScale(123))
	})
	if benchErr != nil {
		b.Fatalf("pipeline: %v", benchErr)
	}
	return benchPipe
}

func benchAgent(b *testing.B) (*worker.Agent, core.Config) {
	b.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	part, err := effort.NewPartition(20, 2)
	if err != nil {
		b.Fatal(err)
	}
	a, err := worker.NewHonest("bench", psi, 1, part.YMax())
	if err != nil {
		b.Fatal(err)
	}
	return a, core.Config{Part: part, Mu: 1, W: 1}
}

// BenchmarkFig6Bounds regenerates Fig. 6's data: designs and bounds across
// the m sweep for a single honest worker.
func BenchmarkFig6Bounds(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.Params{Params: synthpop.DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Clustering regenerates Table II: collusive community
// detection over the malicious worker set.
func BenchmarkTable2Clustering(b *testing.B) {
	p := benchPipeline(b)
	ids := p.Trace.MaliciousWorkerIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comms := cluster.FindCommunities(p.Trace, ids)
		if len(comms) == 0 {
			b.Fatal("no communities found")
		}
	}
}

// BenchmarkFig7ClassProfiles regenerates Fig. 7: per-class effort and
// feedback aggregates.
func BenchmarkFig7ClassProfiles(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.Params{Params: synthpop.DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Fitting regenerates Table III: the degree-1..6 polynomial
// NoR sweep on the honest class's point cloud.
func BenchmarkTable3Fitting(b *testing.B) {
	p := benchPipeline(b)
	efforts, feedbacks, err := p.ClassPoints(worker.Honest)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := polyfit.Sweep(efforts, feedbacks, 1, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8aCompensation regenerates Fig. 8(a): per-worker contract
// design with individual effort functions for m = 10, 20, 40.
func BenchmarkFig8aCompensation(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.Params{Params: synthpop.DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8a(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8bCompensationByClass regenerates Fig. 8(b): class-level
// compensation statistics across μ ∈ {1.0, 0.9, 0.8}.
func BenchmarkFig8bCompensationByClass(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.Params{Params: synthpop.DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8b(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8cVsBaseline regenerates Fig. 8(c): the multi-round
// marketplace under the dynamic policy vs the exclusion baseline.
func BenchmarkFig8cVsBaseline(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.Params{Params: synthpop.DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8c(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGridSearch runs the near-optimality ablation: designed
// contract vs brute-force grid optimum.
func BenchmarkAblationGridSearch(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.Params{Params: synthpop.DefaultParams()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignSingle measures one §IV-C contract design (m = 20)
// through DesignInto over a retained Scratch.
func BenchmarkDesignSingle(b *testing.B) {
	a, cfg := benchAgent(b)
	var s core.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DesignInto(a, cfg, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBestResponse measures one exact worker best-response
// computation against a designed contract.
func BenchmarkBestResponse(b *testing.B) {
	a, cfg := benchAgent(b)
	res, err := core.DesignInto(a, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.BestResponse(res.Contract, cfg.Part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveAllParallel measures the decomposed solver fanning 256
// subproblems across the pool — the §IV-B parallel decomposition claim.
func BenchmarkSolveAllParallel(b *testing.B) {
	a, cfg := benchAgent(b)
	subs := make([]solver.Subproblem, 256)
	for i := range subs {
		subs[i] = solver.Subproblem{Agent: a, Config: cfg}
	}
	ctx := context.Background()
	for _, par := range []struct {
		name string
		n    int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(par.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outcomes, err := solver.SolveAll(ctx, subs, solver.Options{Parallelism: par.n})
				if err != nil {
					b.Fatal(err)
				}
				if len(solver.Results(outcomes)) != len(subs) {
					b.Fatal("lost results")
				}
			}
		})
	}
}

// BenchmarkPlatformRound measures one full marketplace round (design +
// best responses + accounting) for ~200 agents.
func BenchmarkPlatformRound(b *testing.B) {
	p := benchPipeline(b)
	params := synthpop.DefaultParams()
	pop, err := p.BuildPopulation(params, 200)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Simulate(ctx, pop, &platform.DynamicPolicy{}, 1, platform.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExclusionBaselineRound measures the baseline policy's round for
// comparison with BenchmarkPlatformRound.
func BenchmarkExclusionBaselineRound(b *testing.B) {
	p := benchPipeline(b)
	params := synthpop.DefaultParams()
	pop, err := p.BuildPopulation(params, 200)
	if err != nil {
		b.Fatal(err)
	}
	pol := &baseline.ExcludeMalicious{Threshold: 0.5}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Simulate(ctx, pop, pol, 1, platform.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthGeneration measures small-scale trace synthesis.
func BenchmarkSynthGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(synth.SmallScale(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// benchArchetypePopulation builds n agents drawn from exactly three
// archetypes (honest, non-collusive malicious, collusive community), each
// archetype sharing cost parameters and requester weight — so the whole
// population collapses to three design fingerprints.
func benchArchetypePopulation(b *testing.B, n int) *platform.Population {
	b.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	part, err := effort.NewPartition(8, 5)
	if err != nil {
		b.Fatal(err)
	}
	pop := &platform.Population{
		Weights:    make(map[string]float64, n),
		MaliceProb: make(map[string]float64, n),
		Part:       part,
		Mu:         1,
	}
	for i := 0; i < n; i++ {
		var a *worker.Agent
		var w float64
		switch i % 3 {
		case 0:
			a, err = worker.NewHonest(fmt.Sprintf("h%05d", i), psi, 1, part.YMax())
			w = 1
		case 1:
			a, err = worker.NewMalicious(fmt.Sprintf("m%05d", i), psi, 1, 0.5, part.YMax())
			w = 0.8
		default:
			a, err = worker.NewCommunity(fmt.Sprintf("c%05d", i), psi, 1, 0.5, 3, part.YMax())
			w = 0.5
		}
		if err != nil {
			b.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = w
		pop.MaliceProb[a.ID] = 0.1
	}
	return pop
}

// benchManyKeyPopulation builds n agents over exactly keys design keys:
// agent i takes key j = i mod keys, whose class cycles through honest,
// malicious and community and whose β is unique to j, so every key is
// held by n/keys agents.
func benchManyKeyPopulation(b *testing.B, n, keys int) *platform.Population {
	b.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	part, err := effort.NewPartition(8, 5)
	if err != nil {
		b.Fatal(err)
	}
	pop := &platform.Population{
		Weights:    make(map[string]float64, n),
		MaliceProb: make(map[string]float64, n),
		Part:       part,
		Mu:         1,
	}
	for i := 0; i < n; i++ {
		j := i % keys
		beta := 1 + float64(j)/float64(keys)
		id := fmt.Sprintf("a%06d", i)
		var a *worker.Agent
		var w float64
		switch j % 3 {
		case 0:
			a, err = worker.NewHonest(id, psi, beta, part.YMax())
			w = 1
		case 1:
			a, err = worker.NewMalicious(id, psi, beta, 0.5, part.YMax())
			w = 0.8
		default:
			a, err = worker.NewCommunity(id, psi, beta, 0.5, 3, part.YMax())
			w = 0.5
		}
		if err != nil {
			b.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[id] = w
		pop.MaliceProb[id] = 0.1
	}
	return pop
}

// perAgentPolicy replicates the pre-engine design path: one solver
// subproblem per agent, no fingerprint dedup, no cache. It is the baseline
// the engine's Designer is measured against.
type perAgentPolicy struct{}

func (perAgentPolicy) Name() string { return "per-agent-design" }

func (perAgentPolicy) Contracts(ctx context.Context, pop *platform.Population) (map[string]*contract.PiecewiseLinear, error) {
	subs := make([]solver.Subproblem, len(pop.Agents))
	for i, a := range pop.Agents {
		subs[i] = solver.Subproblem{Agent: a, Config: core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]}}
	}
	outs, err := solver.SolveAll(ctx, subs, solver.Options{})
	if err != nil {
		return nil, err
	}
	contracts := make(map[string]*contract.PiecewiseLinear, len(subs))
	for _, o := range outs {
		contracts[subs[o.Index].Agent.ID] = o.Result.Contract
	}
	return contracts, nil
}

// persistentEngine builds a one-round engine over pop and runs it once,
// so caches, views and buffers are warm before the clock starts.
func persistentEngine(b *testing.B, pop *engine.Population, cfg engine.Config) *engine.Engine {
	b.Helper()
	cfg.Rounds = 1
	eng, err := engine.New(pop, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkEngineRound1k measures one engine round over a 1000-agent,
// 3-archetype population in three design regimes:
//
//   - nodedup: the pre-engine baseline, 1000 designs per round;
//   - dedup-cold: fingerprint dedup with a fresh cache per round, 3 calls;
//   - dedup-warm: a warmed cross-round cache, 0 calls;
//   - weight-drift-all: every weight moves every round, 0 calls — the
//     warm menus are re-picked per weight.
//
// Every regime but nodedup and respond-memo-cold times a persistent
// engine warmed off the clock, so the number is a round, not engine
// construction.
func BenchmarkEngineRound1k(b *testing.B) {
	pop := benchArchetypePopulation(b, 1000)
	ctx := context.Background()

	runRound := func(b *testing.B, cfg engine.Config) {
		b.Helper()
		cfg.Rounds = 1
		if _, err := engine.RunLedger(ctx, pop, cfg); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("nodedup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runRound(b, engine.Config{Policy: perAgentPolicy{}})
		}
	})
	b.Run("dedup-cold", func(b *testing.B) {
		// Cold DESIGN, warm infrastructure: a persistent engine (views,
		// buffers, memo all retained) whose design cache is invalidated
		// before every round, so each iteration pays exactly 3 batched
		// cold solves plus the round's respond/settle floor. This is the
		// drifted-fingerprint shape churn and bandit policies produce —
		// engine construction is deliberately off the clock.
		cache := engine.NewCache()
		eng := persistentEngine(b, pop, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Cache:  cache,
			Memo:   engine.NewRespondMemo(),
		})
		before := cache.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Invalidate()
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := cache.Stats(); s.Misses-before != uint64(3*b.N) {
			b.Fatalf("cold rounds performed %d Design calls, want %d", s.Misses-before, 3*b.N)
		}
	})
	b.Run("dedup-warm", func(b *testing.B) {
		// A persistent engine over a warmed cross-round design cache, no
		// respond memo: 0 Design calls per round.
		cache := engine.NewCache()
		eng := persistentEngine(b, pop, engine.Config{Policy: &platform.DynamicPolicy{}, Cache: cache})
		warmed := cache.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := cache.Stats(); s.Misses != warmed {
			b.Fatalf("warm rounds performed %d Design calls, want 0", s.Misses-warmed)
		}
	})
	b.Run("weight-drift-all", func(b *testing.B) {
		// The paper's dynamic loop: every weight moves every round,
		// declared with Population.Bump as dynamics.Run's belief refresh
		// does. Weights never enter a menu, so once the 3 menus are warm a
		// round solves nothing — it re-picks Eq. (43) per distinct weight.
		drifting := benchArchetypePopulation(b, 1000)
		cache := engine.NewCache()
		eng := persistentEngine(b, drifting, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Cache:  cache,
			Memo:   engine.NewRespondMemo(),
		})
		warmed := cache.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, a := range drifting.Agents {
				drifting.Weights[a.ID] = 0.2 + float64(j%100)*1e-2 + float64(i%1000)*1e-6
			}
			drifting.Bump()
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := cache.Stats(); s.Misses != warmed {
			b.Fatalf("weight-drift rounds built %d menus, want 0", s.Misses-warmed)
		}
	})
	b.Run("respond-memo-cold", func(b *testing.B) {
		// Design cache and respond memo both cold each iteration: 3
		// menu builds and 3 BestResponse calls per round.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			memo := engine.NewRespondMemo()
			runRound(b, engine.Config{Policy: &platform.DynamicPolicy{}, Cache: engine.NewCache(), Memo: memo})
			if s := memo.Stats(); s.Misses != 3 {
				b.Fatalf("cold round BestResponse calls = %d, want 3", s.Misses)
			}
		}
	})
	b.Run("respond-memo-warm", func(b *testing.B) {
		// Both layers warm on a persistent engine: zero menu builds and
		// zero BestResponse calls per round, and every buffer — the
		// sorted-agent view, the outcomes array, the contracts map, the
		// respond scratch — reused, so the steady-state round allocates
		// nothing.
		memo := engine.NewRespondMemo()
		eng := persistentEngine(b, pop, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Cache:  engine.NewCache(),
			Memo:   memo,
		})
		warmed := memo.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if s := memo.Stats(); s.Misses != warmed {
			b.Fatalf("warm rounds performed %d BestResponse calls, want 0", s.Misses-warmed)
		}
	})
}

// BenchmarkEngineRound100k measures engine rounds over a 100,000-agent,
// 3-archetype population. sequential-warm runs a persistent engine with
// the design cache and respond memo warmed: the round validates its plan
// in O(distinct fingerprints) and skips the respond stage outright on
// retained outcomes, so only settle remains O(n). The ledger is pinned to
// the naive reference round by TestShardedLedgerIdentical in
// internal/engine.
//
// Two drift variants bracket the mutation path: full-rebuild bumps
// the whole population before every round (the full view rebuild and
// re-plan), while sparse-drift-1pct drifts 1% of agents through
// Population.Touch, so only their slots refresh in place. The sparse
// round is required to stay within 10% of the full-rebuild round
// (scripts/bench.sh gates sparse-drift-1pct in its warm-regression set);
// ledger equivalence with the full rebuild is pinned by
// TestSparseDriftLedgerIdentical in internal/engine. manykey-cold is the
// cold round over 5,000 design keys, where the menu builds and best
// responses fanned out across GOMAXPROCS carry the round.
func BenchmarkEngineRound100k(b *testing.B) {
	pop := benchArchetypePopulation(b, 100_000)
	ctx := context.Background()

	warmEngine := func(b *testing.B) *engine.Engine {
		b.Helper()
		eng, err := engine.New(pop, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Rounds: 1,
			Cache:  engine.NewCache(),
			Memo:   engine.NewRespondMemo(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(ctx); err != nil { // warm caches, views, buffers
			b.Fatal(err)
		}
		return eng
	}

	b.Run("sequential-warm", func(b *testing.B) {
		eng := warmEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dedup-cold", func(b *testing.B) {
		// Cold design at 100k: the design cache is invalidated before
		// every round, so the round re-runs its 3 distinct design keys
		// through the batched solver. The round cost is the warm floor
		// plus distinct-key-count × the batched per-design constant — not
		// O(agents) design work — and each round builds exactly 3 menus.
		cache := engine.NewCache()
		eng, err := engine.New(pop, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Rounds: 1,
			Cache:  cache,
			Memo:   engine.NewRespondMemo(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(ctx); err != nil { // warm views and buffers
			b.Fatal(err)
		}
		before := cache.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Invalidate()
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if misses := cache.Stats().Misses - before; misses != uint64(3*b.N) {
			b.Fatalf("cold rounds performed %d Design calls, want %d", misses, 3*b.N)
		}
	})
	b.Run("manykey-cold", func(b *testing.B) {
		// Cold round over many design keys: 100k agents over 5,000 keys,
		// with the design cache and respond memo invalidated before every
		// round, so each round builds 5,000 menus and solves at least
		// 5,000 best responses — the work the GOMAXPROCS fan-outs split.
		const keys = 5000
		cache, memo := engine.NewCache(), engine.NewRespondMemo()
		eng, err := engine.New(benchManyKeyPopulation(b, 100_000, keys), engine.Config{
			Policy: &platform.DynamicPolicy{},
			Rounds: 1,
			Cache:  cache,
			Memo:   memo,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Run(ctx); err != nil { // warm views and buffers
			b.Fatal(err)
		}
		before := cache.Stats().Misses
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache.Invalidate()
			memo.Invalidate()
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if misses := cache.Stats().Misses - before; misses != uint64(keys*b.N) {
			b.Fatalf("cold rounds built %d menus, want %d", misses, keys*b.N)
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		// Whole-population drift each round: Bump forces the full view
		// rebuild and re-plan — the cost floor sparse drift is measured
		// against. (The name predates the one pipeline; bench.sh's drift
		// ratios and the committed baseline are keyed on it.)
		eng := warmEngine(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pop.Bump()
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sparse-drift-1pct", func(b *testing.B) {
		// 1000 of 100k agents swap between two feedback weights each
		// round, declared via Touch. The two halves alternate in
		// antiphase so both fingerprints always have holders — nothing is
		// evicted, and after two warm rounds every drifted state resolves
		// in the design cache and respond memo. Steady-state rounds then
		// take the pure patch route: only the 1000 touched slots are
		// re-pointed and re-filled. A fresh population keeps the shared
		// bench population pristine.
		drifted := benchArchetypePopulation(b, 100_000)
		ids := make([]string, 0, 1000)
		for i := 0; len(ids) < 1000; i += 3 {
			ids = append(ids, fmt.Sprintf("h%05d", i))
		}
		step := 0
		hook := func(r int, p *engine.Population) {
			step++
			for k, id := range ids {
				w := 1.0
				if (k+step)%2 == 1 {
					w = 1.01
				}
				p.Weights[id] = w
			}
			p.Touch(ids...)
		}
		eng, err := engine.New(drifted, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Rounds: 1,
			Cache:  engine.NewCache(),
			Memo:   engine.NewRespondMemo(),
			Drift:  hook,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2; i++ { // warm both weight states
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structural-churn-1pct", func(b *testing.B) {
		// 1% structural churn: every round 500 agents leave and 500 fresh
		// ones join, declared via TouchLeave/TouchJoin. Two pre-built
		// 500-agent sets alternate — the round's leavers are the previous
		// round's joiners — so the steady population holds at ~100.5k and
		// the same agent objects recycle without allocation. Joiners clone
		// the honest archetype under fresh IDs: their fingerprint always
		// resolves in the warm design cache. Each round splices the view
		// with its outcome buffer, columns and slots in place (survivors
		// between splice points shift), and joiners take the patch route
		// and respond alone. The same churn taken as a full rebuild costs
		// the full-rebuild arm above.
		drifted := benchArchetypePopulation(b, 100_000)
		proto := drifted.Agents[0] // honest archetype
		protoW := drifted.Weights[proto.ID]
		protoMal := drifted.MaliceProb[proto.ID]
		mkSet := func(prefix string) ([]*worker.Agent, []string) {
			set := make([]*worker.Agent, 500)
			ids := make([]string, 500)
			for i := range set {
				na := *proto
				na.ID = fmt.Sprintf("%s%04d", prefix, i)
				set[i] = &na
				ids[i] = na.ID
			}
			return set, ids
		}
		setA, idsA := mkSet("ja")
		setB, idsB := mkSet("jb")
		sets := [2][]*worker.Agent{setA, setB}
		idSets := [2][]string{idsA, idsB}
		turn := 0
		hook := func(r int, p *engine.Population) {
			next := turn % 2
			if turn > 0 {
				// The previous set was appended last, so it occupies the
				// population tail — truncate it off and declare the leave.
				prev := 1 - next
				p.Agents = p.Agents[:len(p.Agents)-500]
				for _, id := range idSets[prev] {
					delete(p.Weights, id)
					delete(p.MaliceProb, id)
				}
				p.TouchLeave(idSets[prev]...)
			}
			for _, a := range sets[next] {
				p.Agents = append(p.Agents, a)
				p.Weights[a.ID] = protoW
				p.MaliceProb[a.ID] = protoMal
			}
			p.TouchJoin(idSets[next]...)
			turn++
		}
		eng, err := engine.New(drifted, engine.Config{
			Policy: &platform.DynamicPolicy{},
			Rounds: 1,
			Cache:  engine.NewCache(),
			Memo:   engine.NewRespondMemo(),
			Drift:  hook,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 2; i++ { // warm caches and both churn sets
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
