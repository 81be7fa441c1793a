package budget

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

func menu(id string, opts ...Option) Menu {
	return Menu{AgentID: id, Options: append([]Option{{K: 0}}, opts...)}
}

func TestMenuValidate(t *testing.T) {
	ok := menu("a", Option{K: 1, Cost: 1, Benefit: 2})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid menu rejected: %v", err)
	}
	bad := []Menu{
		{AgentID: "", Options: []Option{{K: 0}}},
		{AgentID: "a"},
		{AgentID: "a", Options: []Option{{K: 1, Cost: 1, Benefit: 1}}}, // no zero option
		{AgentID: "a", Options: []Option{{K: 0}, {K: 1, Cost: -1}}},
		{AgentID: "a", Options: []Option{{K: 0}, {K: 1, Cost: math.NaN()}}},
	}
	for i, m := range bad {
		if err := m.Validate(); !errors.Is(err, ErrBadInput) {
			t.Errorf("bad menu %d accepted", i)
		}
	}
}

func TestSolveDPExactSmall(t *testing.T) {
	menus := []Menu{
		menu("a", Option{K: 1, Cost: 2, Benefit: 3}, Option{K: 2, Cost: 4, Benefit: 5}),
		menu("b", Option{K: 1, Cost: 3, Benefit: 4}),
	}
	// Budget 5: best is a@K1 (2,3) + b@K1 (3,4) = benefit 7.
	alloc, err := SolveDP(menus, 5, 500)
	if err != nil {
		t.Fatalf("SolveDP: %v", err)
	}
	if alloc.TotalBenefit != 7 {
		t.Errorf("benefit = %v, want 7 (choice %+v)", alloc.TotalBenefit, alloc.Choice)
	}
	if alloc.TotalCost > 5 {
		t.Errorf("cost %v exceeds budget", alloc.TotalCost)
	}
	// Budget 4: a@K2 alone (4,5) beats a@K1+nothing (3) and b alone (4).
	alloc, err = SolveDP(menus, 4, 400)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalBenefit != 5 {
		t.Errorf("budget 4: benefit = %v, want 5", alloc.TotalBenefit)
	}
	// Budget 0: nothing affordable.
	alloc, err = SolveDP(menus, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalBenefit != 0 || alloc.TotalCost != 0 {
		t.Errorf("budget 0: %+v", alloc)
	}
}

func TestSolveGreedyMatchesSmall(t *testing.T) {
	menus := []Menu{
		menu("a", Option{K: 1, Cost: 2, Benefit: 3}, Option{K: 2, Cost: 4, Benefit: 5}),
		menu("b", Option{K: 1, Cost: 3, Benefit: 4}),
	}
	alloc, err := SolveGreedy(menus, 5)
	if err != nil {
		t.Fatalf("SolveGreedy: %v", err)
	}
	if alloc.TotalBenefit != 7 {
		t.Errorf("benefit = %v, want 7", alloc.TotalBenefit)
	}
	if alloc.TotalCost > 5 {
		t.Errorf("cost %v exceeds budget", alloc.TotalCost)
	}
}

func TestSolveGreedyBestSingleFallback(t *testing.T) {
	// One huge-efficiency cheap increment would trap the plain greedy;
	// the single big option is better and affordable.
	menus := []Menu{
		menu("small", Option{K: 1, Cost: 0.1, Benefit: 1}),
		menu("big", Option{K: 1, Cost: 10, Benefit: 50}),
	}
	alloc, err := SolveGreedy(menus, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy takes small (0.1, 1) then cannot afford big (needs 10 with
	// 9.9 left); fallback must pick big alone.
	if alloc.TotalBenefit != 50 {
		t.Errorf("benefit = %v, want 50 via best-single fallback (choice %+v)",
			alloc.TotalBenefit, alloc.Choice)
	}
}

func TestFrontierDominanceAndConcavity(t *testing.T) {
	opts := []Option{
		{K: 0, Cost: 0, Benefit: 0},
		{K: 1, Cost: 1, Benefit: 5},
		{K: 2, Cost: 2, Benefit: 4}, // dominated: dearer, less benefit
		{K: 3, Cost: 3, Benefit: 6}, // LP-dominated by 1→4 line
		{K: 4, Cost: 4, Benefit: 10},
	}
	f := frontier(opts)
	// Expect origin, K1, K4 — K2 dominated, K3 under the hull.
	if len(f) != 3 || f[1].K != 1 || f[2].K != 4 {
		t.Errorf("frontier = %+v", f)
	}
	// Efficiencies strictly decreasing.
	for j := 2; j < len(f); j++ {
		e1 := (f[j-1].Benefit - f[j-2].Benefit) / (f[j-1].Cost - f[j-2].Cost)
		e2 := (f[j].Benefit - f[j-1].Benefit) / (f[j].Cost - f[j-1].Cost)
		if e2 >= e1 {
			t.Errorf("frontier not concave: %v then %v", e1, e2)
		}
	}
}

func TestSolveErrors(t *testing.T) {
	menus := []Menu{menu("a", Option{K: 1, Cost: 1, Benefit: 1})}
	if _, err := SolveDP(nil, 1, 10); !errors.Is(err, ErrBadInput) {
		t.Error("empty menus accepted")
	}
	if _, err := SolveDP(menus, -1, 10); !errors.Is(err, ErrBadInput) {
		t.Error("negative budget accepted")
	}
	if _, err := SolveDP(menus, 1, 0); !errors.Is(err, ErrBadInput) {
		t.Error("steps=0 accepted")
	}
	if _, err := SolveGreedy(append(menus, menus[0]), 1); !errors.Is(err, ErrBadInput) {
		t.Error("duplicate menus accepted")
	}
}

func TestMenuFromResult(t *testing.T) {
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewHonest("w", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DesignInto(a, core.Config{Part: part, Mu: 1, W: 1.5, WantCandidates: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := MenuFromResult(res, 1.5)
	if err := m.Validate(); err != nil {
		t.Fatalf("menu invalid: %v", err)
	}
	if len(m.Options) != part.M+1 { // m candidates + no-contract
		t.Errorf("options = %d, want %d", len(m.Options), part.M+1)
	}
	for _, o := range m.Options[1:] {
		if o.Benefit <= 0 || o.Cost < 0 {
			t.Errorf("option %+v not positive", o)
		}
	}
}

// Property: greedy respects the budget, achieves at least half the DP
// value (the MCKP guarantee), and DP respects the budget too.
func TestGreedyHalfApproximationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		menus := make([]Menu, n)
		for i := range menus {
			m := Menu{AgentID: fmt.Sprintf("a%d", i), Options: []Option{{K: 0}}}
			for k := 1; k <= 1+rng.Intn(5); k++ {
				m.Options = append(m.Options, Option{
					K:       k,
					Cost:    rng.Float64() * 10,
					Benefit: rng.Float64() * 10,
				})
			}
			menus[i] = m
		}
		budget := rng.Float64() * 20
		greedy, err := SolveGreedy(menus, budget)
		if err != nil {
			return false
		}
		dp, err := SolveDP(menus, budget, 2000)
		if err != nil {
			return false
		}
		if greedy.TotalCost > budget+1e-9 || dp.TotalCost > budget+1e-9 {
			return false
		}
		// DP discretization rounds costs up, so greedy can even beat it;
		// the guarantee direction is greedy >= dp/2 − ε.
		return greedy.TotalBenefit >= dp.TotalBenefit/2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: both solvers are monotone in the budget.
func TestBudgetMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		menus := []Menu{
			menu("a", Option{K: 1, Cost: rng.Float64() * 5, Benefit: rng.Float64() * 5},
				Option{K: 2, Cost: 5 + rng.Float64()*5, Benefit: 5 + rng.Float64()*5}),
			menu("b", Option{K: 1, Cost: rng.Float64() * 5, Benefit: rng.Float64() * 5}),
		}
		prevG, prevD := -1.0, -1.0
		for _, b := range []float64{0, 2, 5, 10, 20} {
			g, err := SolveGreedy(menus, b)
			if err != nil {
				return false
			}
			d, err := SolveDP(menus, b, 1000)
			if err != nil {
				return false
			}
			if g.TotalBenefit < prevG-1e-9 || d.TotalBenefit < prevD-1e-9 {
				return false
			}
			prevG, prevD = g.TotalBenefit, d.TotalBenefit
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
