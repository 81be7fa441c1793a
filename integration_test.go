package dyncontract

import (
	"bytes"
	"context"
	"math"
	"testing"

	"dyncontract/internal/baseline"
	"dyncontract/internal/core"
	"dyncontract/internal/equilibrium"
	"dyncontract/internal/platform"
	"dyncontract/internal/solver"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/trace"
	"dyncontract/internal/worker"
)

// TestEndToEndPipeline drives the complete §IV strategy framework once,
// asserting the cross-module invariants that no single package test can
// see: trace → estimation → clustering → fitting → decomposition →
// parallel design → equilibrium audit → marketplace simulation.
func TestEndToEndPipeline(t *testing.T) {
	pipe, err := synthpop.BuildPipeline(synth.SmallScale(2024))
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	params := synthpop.DefaultParams()

	// 1. The trace round-trips through the JSONL codec unharmed.
	var buf bytes.Buffer
	if err := pipe.Trace.WriteJSONL(&buf); err != nil {
		t.Fatalf("encode trace: %v", err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if len(back.Reviews) != len(pipe.Trace.Reviews) {
		t.Fatalf("codec lost reviews: %d vs %d", len(back.Reviews), len(pipe.Trace.Reviews))
	}

	// 2. A rebuilt pipeline from the decoded trace reaches identical
	// classifications (everything downstream is deterministic).
	pipe2, err := synthpop.BuildPipelineFromTrace(back, 2024)
	if err != nil {
		t.Fatalf("pipeline from decoded trace: %v", err)
	}
	if len(pipe2.CMIDs) != len(pipe.CMIDs) || len(pipe2.NCMIDs) != len(pipe.NCMIDs) {
		t.Errorf("classification drifted across codec: CM %d vs %d, NCM %d vs %d",
			len(pipe2.CMIDs), len(pipe.CMIDs), len(pipe2.NCMIDs), len(pipe.NCMIDs))
	}

	// 3. Parallel decomposition designs a contract for every agent, and
	// each passes the follower equilibrium certificate.
	pop, err := pipe.BuildPopulation(params, 60)
	if err != nil {
		t.Fatalf("population: %v", err)
	}
	subs := make([]solver.Subproblem, len(pop.Agents))
	for i, a := range pop.Agents {
		subs[i] = solver.Subproblem{
			Agent:  a,
			Config: core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]},
		}
	}
	outcomes, err := solver.SolveAll(context.Background(), subs, solver.Options{})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	results := solver.Results(outcomes)
	if len(results) != len(pop.Agents) {
		t.Fatalf("designed %d of %d contracts", len(results), len(pop.Agents))
	}
	eqOpts := equilibrium.Options{GridPoints: 400, Step: 0.05, Tol: 1e-6}
	audited := 0
	for _, res := range results {
		if audited >= 10 {
			break // auditing a sample keeps the test fast
		}
		rep, err := equilibrium.CheckFollower(res.Agent, res.Contract,
			core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[res.Agent.ID]},
			res.Response.Effort, eqOpts)
		if err != nil {
			t.Fatalf("equilibrium check: %v", err)
		}
		if !rep.Holds {
			t.Errorf("agent %s: follower equilibrium violated (grid %v > predicted %v)",
				res.Agent.ID, rep.BestGridUtility, rep.PredictedUtility)
		}
		audited++
	}

	// 4. Honest workers are paid more per capita than malicious ones
	// across the designed contracts (the Fig. 8(b) ordering), and every
	// requester utility respects its Theorem 4.1 upper bound.
	var honestPay, malPay []float64
	for _, res := range results {
		if res.RequesterUtility > res.UpperBound+1e-7 {
			t.Errorf("agent %s: utility %v above UB %v", res.Agent.ID, res.RequesterUtility, res.UpperBound)
		}
		pay := res.Response.Compensation / float64(res.Agent.Size)
		if res.Agent.Class == worker.Honest {
			honestPay = append(honestPay, pay)
		} else {
			malPay = append(malPay, pay)
		}
	}
	if mean(honestPay) <= mean(malPay) {
		t.Errorf("honest mean pay %v <= malicious %v", mean(honestPay), mean(malPay))
	}

	// 5. The simulated marketplace prefers the dynamic policy over both
	// baselines, consistently across rounds.
	ctx := context.Background()
	dyn, err := platform.Simulate(ctx, pop, &platform.DynamicPolicy{}, 3, platform.Options{})
	if err != nil {
		t.Fatalf("simulate dynamic: %v", err)
	}
	excl, err := platform.Simulate(ctx, pop, &baseline.ExcludeMalicious{Threshold: 0.5}, 3, platform.Options{})
	if err != nil {
		t.Fatalf("simulate exclusion: %v", err)
	}
	fixed, err := platform.Simulate(ctx, pop, &baseline.FixedPayment{Amount: 1}, 3, platform.Options{})
	if err != nil {
		t.Fatalf("simulate fixed: %v", err)
	}
	dynTotal := platform.TotalUtility(dyn)
	if dynTotal <= platform.TotalUtility(excl) {
		t.Errorf("dynamic %v <= exclusion %v", dynTotal, platform.TotalUtility(excl))
	}
	if dynTotal <= platform.TotalUtility(fixed) {
		t.Errorf("dynamic %v <= fixed %v", dynTotal, platform.TotalUtility(fixed))
	}
	for _, r := range dyn {
		if math.IsNaN(r.Utility) || math.IsInf(r.Utility, 0) {
			t.Fatalf("round %d: non-finite utility", r.Index)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
