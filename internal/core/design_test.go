package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// stdPsi is the canonical effort function used by core tests:
// ψ(y) = -0.02y² + 2y + 1, increasing on [0, 50).
func stdPsi(t *testing.T) effort.Quadratic {
	t.Helper()
	q, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func stdConfig(t *testing.T, m int) Config {
	t.Helper()
	part, err := effort.NewPartition(m, 40.0/float64(m))
	if err != nil {
		t.Fatal(err)
	}
	// WantCandidates: the package's tests assert over the full per-k
	// diagnostics, not just the winner.
	return Config{Part: part, Mu: 1, W: 1, WantCandidates: true}
}

func honestAgent(t *testing.T) *worker.Agent {
	t.Helper()
	a, err := worker.NewHonest("h1", stdPsi(t), 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func maliciousAgent(t *testing.T, omega float64) *worker.Agent {
	t.Helper()
	a, err := worker.NewMalicious("m1", stdPsi(t), 1, omega, 40)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	part, _ := effort.NewPartition(4, 1)
	valid := Config{Part: part, Mu: 1, W: 1}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Part: effort.Partition{}, Mu: 1, W: 1},
		{Part: part, Mu: 0, W: 1},
		{Part: part, Mu: -2, W: 1},
		{Part: part, Mu: 1, W: math.NaN()},
		{Part: part, Mu: math.Inf(1), W: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestCaseString(t *testing.T) {
	if CaseI.String() != "I" || CaseII.String() != "II" || CaseIII.String() != "III" {
		t.Error("Case strings wrong")
	}
	if Case(0).String() == "" {
		t.Error("unknown case String empty")
	}
}

func TestDesignBasicInvariants(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 10)
	res, err := ReferenceDesign(a, cfg)
	if err != nil {
		t.Fatalf("Design: %v", err)
	}
	if res.KOpt < 1 || res.KOpt > cfg.Part.M {
		t.Errorf("KOpt = %d out of range", res.KOpt)
	}
	if len(res.Candidates) != cfg.Part.M {
		t.Errorf("candidates = %d, want %d", len(res.Candidates), cfg.Part.M)
	}
	if res.Contract == nil {
		t.Fatal("nil contract")
	}
	// The chosen candidate dominates all others for the requester.
	for _, cand := range res.Candidates {
		if cand.RequesterUtility > res.RequesterUtility+1e-9 {
			t.Errorf("candidate k=%d utility %v beats chosen %v",
				cand.K, cand.RequesterUtility, res.RequesterUtility)
		}
	}
}

func TestDesignBestResponseLandsInTargetInterval(t *testing.T) {
	// For honest workers with no clamping, each candidate ξ^(k) must induce
	// a best response inside interval k (the construction's whole point).
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
		if cand.Response.Interval != cand.K {
			t.Errorf("candidate k=%d induced interval %d (effort %v)",
				cand.K, cand.Response.Interval, cand.Response.Effort)
		}
	}
}

func TestDesignSlopesInCaseIIIWindows(t *testing.T) {
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
		for l := 1; l <= cand.K; l++ {
			alpha := cand.Contract.Slope(l)
			if got := Classify(a, cfg.Part, l, alpha); got != CaseIII {
				t.Errorf("k=%d piece %d: slope %v classified %v, want III (window (%v, %v))",
					cand.K, l, alpha, got,
					CaseBoundaryLower(a, cfg.Part, l), CaseBoundaryUpper(a, cfg.Part, l))
			}
		}
		// Flat pieces after k are Case I (utility decreasing).
		for l := cand.K + 1; l <= cfg.Part.M; l++ {
			alpha := cand.Contract.Slope(l)
			if alpha != 0 {
				t.Errorf("k=%d piece %d: flat continuation has slope %v", cand.K, l, alpha)
			}
			if got := Classify(a, cfg.Part, l, alpha); got != CaseI {
				t.Errorf("k=%d piece %d: flat piece classified %v, want I", cand.K, l, got)
			}
		}
	}
}

func TestDesignTheoremBoundsHonest(t *testing.T) {
	a := honestAgent(t)
	for _, m := range []int{4, 10, 20, 40} {
		cfg := stdConfig(t, m)
		res, err := ReferenceDesign(a, cfg)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.RequesterUtility > res.UpperBound+1e-9 {
			t.Errorf("m=%d: utility %v exceeds UB %v", m, res.RequesterUtility, res.UpperBound)
		}
		if res.RequesterUtility < res.LowerBound-1e-9 {
			t.Errorf("m=%d: utility %v below LB %v", m, res.RequesterUtility, res.LowerBound)
		}
	}
}

func TestDesignUtilityConvergesToUpperBound(t *testing.T) {
	// Fig 6's backbone: the gap UB − achieved must shrink as m grows.
	a := honestAgent(t)
	var prevGap = math.Inf(1)
	for _, m := range []int{5, 10, 20, 40, 80} {
		cfg := stdConfig(t, m)
		res, err := ReferenceDesign(a, cfg)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		gap := res.UpperBound - res.RequesterUtility
		if gap < -1e-9 {
			t.Fatalf("m=%d: negative gap %v", m, gap)
		}
		if gap > prevGap+1e-6 {
			t.Errorf("m=%d: gap %v grew from %v", m, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 1.0 {
		t.Errorf("final gap %v too large; no convergence", prevGap)
	}
}

func TestDesignCompensationWithinLemmaBounds(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 10)
	res, err := ReferenceDesign(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	comp := res.Response.Compensation
	ub := CompensationUpperBound(a, cfg.Part, res.KOpt)
	lb := CompensationLowerBound(a, cfg.Part, res.KOpt)
	if comp > ub+1e-9 {
		t.Errorf("compensation %v exceeds Lemma 4.2 bound %v", comp, ub)
	}
	if comp < lb-1e-9 {
		t.Errorf("compensation %v below Lemma 4.3 bound %v", comp, lb)
	}
}

func TestDesignMaliciousPaysLessPerUnitWeight(t *testing.T) {
	// With the same requester weight, a malicious worker's intrinsic
	// motivation (ω > 0) lets the requester extract effort more cheaply:
	// compensation at the same k cannot exceed the honest worker's.
	h := honestAgent(t)
	m := maliciousAgent(t, 0.5)
	cfg := stdConfig(t, 10)
	hres, err := ReferenceDesign(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := ReferenceDesign(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Compare candidate-by-candidate (same k ⇒ same induced interval).
	for k := 0; k < cfg.Part.M; k++ {
		hc := hres.Candidates[k]
		mc := mres.Candidates[k]
		if mc.Contract.MaxComp() > hc.Contract.MaxComp()+1e-9 {
			t.Errorf("k=%d: malicious max comp %v exceeds honest %v",
				k+1, mc.Contract.MaxComp(), hc.Contract.MaxComp())
		}
	}
}

func TestDesignNegativeWeightPaysNothing(t *testing.T) {
	// A worker whose feedback the requester values negatively (heavy
	// malice penalty in Eq. (5)) should end up with the cheapest contract:
	// k=1 and (near-)zero compensation at best response.
	a := honestAgent(t)
	cfg := stdConfig(t, 10)
	cfg.W = -0.5
	res, err := ReferenceDesign(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.KOpt != 1 {
		t.Errorf("KOpt = %d, want 1 for negatively weighted worker", res.KOpt)
	}
}

func TestDesignInvalidInputs(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 4)
	cfg.Mu = -1
	if _, err := ReferenceDesign(a, cfg); err == nil {
		t.Error("negative mu accepted")
	}
	// Partition extending past psi's increasing range must be rejected.
	part, _ := effort.NewPartition(10, 10) // YMax=100 > apex=50
	if _, err := ReferenceDesign(a, Config{Part: part, Mu: 1, W: 1}); err == nil {
		t.Error("partition past apex accepted")
	}
}

func TestClassifyBoundaries(t *testing.T) {
	a := honestAgent(t)
	part, _ := effort.NewPartition(4, 5)
	l := 2
	lower := CaseBoundaryLower(a, part, l)
	upper := CaseBoundaryUpper(a, part, l)
	if lower >= upper {
		t.Fatalf("boundaries out of order: %v >= %v", lower, upper)
	}
	if Classify(a, part, l, lower) != CaseI {
		t.Error("slope at lower boundary: want Case I")
	}
	if Classify(a, part, l, upper) != CaseII {
		t.Error("slope at upper boundary: want Case II")
	}
	if Classify(a, part, l, (lower+upper)/2) != CaseIII {
		t.Error("slope mid-window: want Case III")
	}
}

// Property: for random honest workers, the designed utility respects
// LB ≤ U ≤ UB and candidate best responses land in their target intervals.
func TestDesignBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r2 := -(0.005 + rng.Float64()*0.05)
		r1 := 1 + rng.Float64()*3
		r0 := rng.Float64() * 2
		apex := -r1 / (2 * r2)
		yMax := apex * (0.5 + rng.Float64()*0.4)
		psi, err := effort.NewQuadratic(r2, r1, r0, yMax)
		if err != nil {
			return true
		}
		m := 3 + rng.Intn(12)
		part, err := effort.NewPartition(m, yMax/float64(m))
		if err != nil {
			return true
		}
		a, err := worker.NewHonest("w", psi, 0.3+rng.Float64()*2, yMax)
		if err != nil {
			return true
		}
		cfg := Config{Part: part, Mu: 0.5 + rng.Float64(), W: rng.Float64() * 2, WantCandidates: true}
		res, err := ReferenceDesign(a, cfg)
		if err != nil {
			return false
		}
		if res.RequesterUtility > res.UpperBound+1e-7 {
			return false
		}
		if res.RequesterUtility < res.LowerBound-1e-7 {
			return false
		}
		for _, cand := range res.Candidates {
			if cand.Clamped {
				continue
			}
			if cand.Response.Interval != cand.K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: compensation under the chosen contract lies within the Lemma
// 4.2 / 4.3 window at k_opt for honest workers.
func TestCompensationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		psi, err := effort.NewQuadratic(-0.01-rng.Float64()*0.02, 1.5+rng.Float64(), rng.Float64(), 30)
		if err != nil {
			return true
		}
		part, err := effort.NewPartition(4+rng.Intn(10), 30.0/float64(4+rng.Intn(10)+10))
		if err != nil {
			return true
		}
		if psi.Deriv(part.YMax()) <= 0 {
			return true
		}
		a, err := worker.NewHonest("w", psi, 0.5+rng.Float64(), part.YMax())
		if err != nil {
			return true
		}
		cfg := Config{Part: part, Mu: 1, W: 0.5 + rng.Float64()}
		res, err := ReferenceDesign(a, cfg)
		if err != nil {
			return false
		}
		comp := res.Response.Compensation
		return comp <= CompensationUpperBound(a, cfg.Part, res.KOpt)+1e-7 &&
			comp >= CompensationLowerBound(a, cfg.Part, res.KOpt)-1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
