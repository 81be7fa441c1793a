package dyncontract

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dyncontract/internal/adversary"
	"dyncontract/internal/assignment"
	"dyncontract/internal/classify"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/equilibrium"
	"dyncontract/internal/experiments"
	"dyncontract/internal/platform"
	"dyncontract/internal/reputation"
	"dyncontract/internal/solver"
	"dyncontract/internal/worker"
)

// BenchmarkDesignByPartition is the partition-size ablation: design cost
// as a function of m (the algorithm is O(m²) best responses).
func BenchmarkDesignByPartition(b *testing.B) {
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{5, 10, 20, 40, 80} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			part, err := effort.NewPartition(m, 40.0/float64(m))
			if err != nil {
				b.Fatal(err)
			}
			a, err := worker.NewHonest("bench", psi, 1, part.YMax())
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{Part: part, Mu: 1, W: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Design(a, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverScaling measures the decomposed solver across pool sizes
// — the §IV-B parallel decomposition ablation.
func BenchmarkSolverScaling(b *testing.B) {
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
	subs := make([]solver.Subproblem, 512)
	for i := range subs {
		subs[i] = solver.Subproblem{Agent: a, Config: core.Config{Part: part, Mu: 1, W: 1}}
	}
	ctx := context.Background()
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outcomes, err := solver.SolveAll(ctx, subs, solver.Options{Parallelism: par})
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

// BenchmarkAdversaryScenario measures the strategic-attacker extension:
// on-off attacker vs adaptive defense over 6 rounds.
func BenchmarkAdversaryScenario(b *testing.B) {
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	part, err := effort.NewPartition(8, 5)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *adversary.Scenario {
		pop := &platform.Population{
			Weights:    make(map[string]float64),
			MaliceProb: make(map[string]float64),
			Part:       part,
			Mu:         1,
		}
		for i := 0; i < 8; i++ {
			a, err := worker.NewHonest(fmt.Sprintf("h%02d", i), psi, 1, part.YMax())
			if err != nil {
				b.Fatal(err)
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 1.5
			pop.MaliceProb[a.ID] = 0.05
		}
		m, err := worker.NewMalicious("attacker", psi, 1, 0.5, part.YMax())
		if err != nil {
			b.Fatal(err)
		}
		pop.Agents = append(pop.Agents, m)
		pop.Weights[m.ID] = 1.2
		pop.MaliceProb[m.ID] = 0.1
		tr, err := reputation.NewTracker(reputation.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return &adversary.Scenario{
			Pop:        pop,
			Strategies: map[string]adversary.Strategy{"attacker": adversary.OnOff{Period: 3, Duty: 1}},
			Tracker:    tr,
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := build()
		if _, err := sc.Run(ctx, &platform.DynamicPolicy{}, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyBatch measures the classification extension: design +
// label + aggregate for a 500-item batch with 8 labelers.
func BenchmarkClassifyBatch(b *testing.B) {
	part, err := effort.NewPartition(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	task, err := classify.NewTask(rng, 500, 80, 0.4, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	var labelers []classify.Labeler
	for i := 0; i < 6; i++ {
		labelers = append(labelers, classify.Labeler{
			ID: fmt.Sprintf("h%02d", i), Class: worker.Honest,
			Curve: classify.DefaultCurve(), Beta: 0.2,
		})
	}
	for i := 0; i < 2; i++ {
		labelers = append(labelers, classify.Labeler{
			ID: fmt.Sprintf("m%02d", i), Class: worker.NonCollusiveMalicious,
			Curve: classify.DefaultCurve(), Beta: 0.2, Omega: 0.1, TargetBias: 0.8,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		contracts, err := classify.DesignContracts(labelers, task, part, 5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := classify.RunBatch(rand.New(rand.NewSource(int64(i))), labelers, task, contracts, part); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquilibriumChecks measures the follower and leader equilibrium
// certificates on a designed contract.
func BenchmarkEquilibriumChecks(b *testing.B) {
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		b.Fatal(err)
	}
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		b.Fatal(err)
	}
	a, err := worker.NewHonest("eq", psi, 1, part.YMax())
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Part: part, Mu: 1, W: 1}
	res, err := core.Design(a, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := equilibrium.DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := equilibrium.CheckFollower(a, res.Contract, cfg, res.Response.Effort, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := equilibrium.CheckLeader(a, res.Contract, cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetAllocation measures the budget-feasible extension: menu
// construction + MCKP (greedy and DP) over an 80-agent population.
func BenchmarkBudgetAllocation(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBudget(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSensitivitySweep measures the estimator-quality ablation.
func BenchmarkSensitivitySweep(b *testing.B) {
	p := benchPipeline(b)
	params := experiments.DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSensitivity(p, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHungarianMatching measures the exact assignment solver on a
// 128x128 value matrix.
func BenchmarkHungarianMatching(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 128
	value := make([][]float64, n)
	for i := range value {
		value[i] = make([]float64, n)
		for j := range value[i] {
			value[i][j] = rng.Float64() * 100
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assignment.Optimal(value); err != nil {
			b.Fatal(err)
		}
	}
}
