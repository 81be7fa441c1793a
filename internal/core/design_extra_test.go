package core

import (
	"math"
	"testing"

	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// TestDesignCandidateUtilityIncreasesUpToK verifies Eq. (36)'s design
// intent directly: under candidate ξ^(k), the worker's achievable utility
// per interval strictly increases up to interval k and does not increase
// after it (the flat continuation).
func TestDesignCandidateUtilityIncreasesUpToK(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 8)
	res, err := ReferenceDesign(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range res.Candidates {
		if cand.Clamped {
			continue
		}
		// Utility at the best effort within each interval, computed by a
		// fine grid (independent of the analytic machinery).
		intervalBest := make([]float64, cfg.Part.M+1)
		for l := 1; l <= cfg.Part.M; l++ {
			lo, hi := cfg.Part.Edge(l-1), cfg.Part.Edge(l)
			best := math.Inf(-1)
			for i := 0; i <= 200; i++ {
				y := lo + (hi-lo)*float64(i)/200
				if u := a.Utility(cand.Contract, y); u > best {
					best = u
				}
			}
			intervalBest[l] = best
		}
		for l := 2; l <= cand.K; l++ {
			if intervalBest[l] <= intervalBest[l-1]-1e-9 {
				t.Errorf("k=%d: interval %d best utility %v <= interval %d's %v (should increase up to k)",
					cand.K, l, intervalBest[l], l-1, intervalBest[l-1])
			}
		}
		for l := cand.K + 1; l <= cfg.Part.M; l++ {
			if intervalBest[l] > intervalBest[cand.K]+1e-9 {
				t.Errorf("k=%d: interval %d best utility %v exceeds target interval's %v",
					cand.K, l, intervalBest[l], intervalBest[cand.K])
			}
		}
	}
}

// TestDesignLargeOmegaClamps exercises the clamped branch: with ω huge the
// Case III windows go negative, slopes clamp at zero, and the design must
// still return a valid monotone contract with an exact best response.
func TestDesignLargeOmegaClamps(t *testing.T) {
	psi := stdPsi(t)
	part, err := effort.NewPartition(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewMalicious("omega-huge", psi, 1, 10, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReferenceDesign(a, Config{Part: part, Mu: 1, W: 1, WantCandidates: true})
	if err != nil {
		t.Fatalf("Design with huge omega: %v", err)
	}
	clamped := false
	for _, cand := range res.Candidates {
		if cand.Clamped {
			clamped = true
		}
	}
	if !clamped {
		t.Error("expected clamped candidates with omega=10")
	}
	// The worker self-motivates: near-max effort even with flat contracts.
	if res.Response.Effort <= 0 {
		t.Errorf("effort = %v; omega-driven worker should work regardless", res.Response.Effort)
	}
	// And the requester should pay (almost) nothing for it.
	if res.Response.Compensation > 1 {
		t.Errorf("compensation = %v; requester overpays an intrinsically motivated worker",
			res.Response.Compensation)
	}
}

// TestDesignCommunityMetaWorker checks the collusive-community path: a
// community is designed for as one meta-worker, and scaling the community
// size via the Size field does not break design invariants.
func TestDesignCommunityMetaWorker(t *testing.T) {
	psi := stdPsi(t)
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := worker.NewCommunity("ring", psi, 1, 0.5, 5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReferenceDesign(comm, Config{Part: part, Mu: 1, W: 0.5})
	if err != nil {
		t.Fatalf("Design for community: %v", err)
	}
	if res.Agent.Size != 5 {
		t.Errorf("Size = %d, want 5", res.Agent.Size)
	}
	if res.Response.Interval != res.KOpt {
		t.Errorf("community best response interval %d != k_opt %d", res.Response.Interval, res.KOpt)
	}
	// Identical parameters as an individual malicious worker: the contract
	// itself is the same (the meta-worker treatment changes accounting,
	// not the subproblem mathematics).
	indiv, err := worker.NewMalicious("lone", psi, 1, 0.5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	ires, err := ReferenceDesign(indiv, Config{Part: part, Mu: 1, W: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contract.Equal(ires.Contract) {
		t.Error("community contract differs from identically-parameterized individual")
	}
}

// TestDesignZeroCompensationAtZeroFeedbackKnot: contracts must pay x₀ = 0
// at the zero-effort knot — no free money.
func TestDesignZeroCompensationAtZeroFeedbackKnot(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 10)
	res, err := ReferenceDesign(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cand := range res.Candidates {
		if cand.Contract.Comp(0) != 0 {
			t.Errorf("k=%d: x0 = %v, want 0", cand.K, cand.Contract.Comp(0))
		}
	}
}

// TestDesignMuScaling: a more cost-averse requester (higher μ) never
// induces more effort.
func TestDesignMuScaling(t *testing.T) {
	a := honestAgent(t)
	prevEffort := math.Inf(1)
	for _, mu := range []float64{0.5, 1, 2, 5, 20} {
		cfg := stdConfig(t, 20)
		cfg.Mu = mu
		res, err := ReferenceDesign(a, cfg)
		if err != nil {
			t.Fatalf("mu=%v: %v", mu, err)
		}
		if res.Response.Effort > prevEffort+1e-9 {
			t.Errorf("mu=%v: effort %v exceeds effort at lower mu %v", mu, res.Response.Effort, prevEffort)
		}
		prevEffort = res.Response.Effort
	}
}

// TestDesignWeightScaling: a requester who values feedback more (higher w)
// never induces less effort.
func TestDesignWeightScaling(t *testing.T) {
	a := honestAgent(t)
	prevEffort := -1.0
	for _, w := range []float64{0.2, 0.5, 1, 2, 5} {
		cfg := stdConfig(t, 20)
		cfg.W = w
		res, err := ReferenceDesign(a, cfg)
		if err != nil {
			t.Fatalf("w=%v: %v", w, err)
		}
		if res.Response.Effort < prevEffort-1e-9 {
			t.Errorf("w=%v: effort %v below effort at lower w %v", w, res.Response.Effort, prevEffort)
		}
		prevEffort = res.Response.Effort
	}
}

// TestCompensationBoundOrdering: Lemma 4.2's upper bound dominates Lemma
// 4.3's lower bound at every k.
func TestCompensationBoundOrdering(t *testing.T) {
	a := honestAgent(t)
	part, err := effort.NewPartition(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= part.M; k++ {
		lb := CompensationLowerBound(a, part, k)
		ub := CompensationUpperBound(a, part, k)
		if lb > ub+1e-9 {
			t.Errorf("k=%d: comp LB %v > UB %v", k, lb, ub)
		}
		if lb < 0 {
			t.Errorf("k=%d: negative comp LB %v", k, lb)
		}
	}
}

// TestUpperBoundNeverBelowNoContractUtility: the requester can always post
// a zero contract; the Theorem 4.1 UB must respect that floor.
func TestUpperBoundNeverBelowNoContractUtility(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 10)
	cfg.W = 0.1 // low-value worker: contracting is barely worth it
	ub := UpperBound(a, cfg)
	floor := cfg.W * a.Psi.Eval(0)
	if ub < floor-1e-12 {
		t.Errorf("UB %v below zero-contract floor %v", ub, floor)
	}
}
