package optimal

import (
	"errors"
	"testing"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

func optFixture(t *testing.T, m int) (*worker.Agent, core.Config) {
	t.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(m, 40.0/float64(m))
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewHonest("h", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	return a, core.Config{Part: part, Mu: 1, W: 1}
}

func TestSearchFindsPositiveUtility(t *testing.T) {
	a, cfg := optFixture(t, 4)
	res, err := Search(a, cfg, Options{SlopeGrid: 8})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.RequesterUtility <= 0 {
		t.Errorf("grid utility = %v, want positive", res.RequesterUtility)
	}
	if res.Evaluated != 8*8*8*8 {
		t.Errorf("Evaluated = %d, want 4096", res.Evaluated)
	}
	if res.Contract == nil {
		t.Fatal("nil contract")
	}
}

func TestSearchRespectsUpperBound(t *testing.T) {
	a, cfg := optFixture(t, 4)
	res, err := Search(a, cfg, Options{SlopeGrid: 10})
	if err != nil {
		t.Fatal(err)
	}
	ub := core.UpperBound(a, cfg)
	if res.RequesterUtility > ub+1e-9 {
		t.Errorf("grid utility %v exceeds theoretical UB %v", res.RequesterUtility, ub)
	}
}

func TestDesignNearGridOptimum(t *testing.T) {
	// The paper's claim: the candidate algorithm is near-optimal. Compare
	// against an independent grid search on a small instance.
	a, cfg := optFixture(t, 5)
	grid, err := Search(a, cfg, Options{SlopeGrid: 12})
	if err != nil {
		t.Fatal(err)
	}
	designed, err := core.DesignInto(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The algorithm must capture at least 90% of the grid optimum (both
	// are upper-bounded by core.UpperBound, and the theoretical LB/UB gap
	// shrinks with m; 0.9 is conservative for m=5).
	if designed.RequesterUtility < 0.9*grid.RequesterUtility {
		t.Errorf("designed utility %v < 90%% of grid optimum %v",
			designed.RequesterUtility, grid.RequesterUtility)
	}
}

func TestSearchBudget(t *testing.T) {
	a, cfg := optFixture(t, 10)
	_, err := Search(a, cfg, Options{SlopeGrid: 10, Budget: 1000})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestSearchInvalidInputs(t *testing.T) {
	a, cfg := optFixture(t, 3)
	if _, err := Search(a, cfg, Options{SlopeGrid: 1}); err == nil {
		t.Error("grid=1 accepted")
	}
	bad := cfg
	bad.Mu = 0
	if _, err := Search(a, bad, Options{SlopeGrid: 4}); err == nil {
		t.Error("mu=0 accepted")
	}
}

func TestSearchMaliciousAgent(t *testing.T) {
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewMalicious("m", psi, 1, 0.5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Part: part, Mu: 1, W: 1}
	res, err := Search(a, cfg, Options{SlopeGrid: 8})
	if err != nil {
		t.Fatal(err)
	}
	// A malicious worker works for free (ω pulls them): even the zero
	// contract extracts positive feedback, so utility must be positive.
	if res.RequesterUtility <= 0 {
		t.Errorf("utility = %v, want positive for malicious agent", res.RequesterUtility)
	}
}
