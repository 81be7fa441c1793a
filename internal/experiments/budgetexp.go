package experiments

import (
	"context"
	"fmt"

	"dyncontract/internal/budget"
	"dyncontract/internal/platform"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/textplot"
)

// budgetFractions sweep the per-round budget as fractions of the
// unconstrained policy's spend.
var budgetFractions = []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5}

// RunBudget evaluates the budget-feasible extension (related work [4],
// [5], [8]): the budgeted dynamic policy across a budget sweep, compared
// to the unconstrained dynamic policy's spend. Expected shapes: benefit is
// monotone in the budget with diminishing returns, the greedy MCKP tracks
// the exact DP closely, and the full-budget point recovers (at least) the
// unconstrained benefit.
func RunBudget(p *synthpop.Pipeline, params Params) (*Report, error) {
	pop, err := p.BuildPopulation(params.Params, 80)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()

	// Reference: the unconstrained dynamic policy's spend and benefit.
	free, err := platform.Simulate(ctx, pop, &platform.DynamicPolicy{}, 1, platform.Options{})
	if err != nil {
		return nil, fmt.Errorf("budget: unconstrained reference: %w", err)
	}
	refCost, refBenefit := free[0].Cost, free[0].Benefit
	if refCost <= 0 {
		return nil, fmt.Errorf("%w: unconstrained policy spends nothing", synthpop.ErrPipeline)
	}

	rep := &Report{
		ID:     "budget",
		Title:  "budget-feasible contracts: benefit vs per-round budget (extension)",
		Header: []string{"budget", "frac-of-free-spend", "greedy-benefit", "dp-benefit", "greedy-cost"},
	}
	var xs, ys []float64
	monotone := true
	prevBenefit := -1.0
	for _, frac := range budgetFractions {
		b := frac * refCost
		greedyLedger, err := platform.Simulate(ctx, pop, &budget.Policy{Budget: b}, 1, platform.Options{})
		if err != nil {
			return nil, fmt.Errorf("budget: greedy B=%v: %w", b, err)
		}
		dpLedger, err := platform.Simulate(ctx, pop, &budget.Policy{Budget: b, UseDP: true, DPSteps: 3000}, 1, platform.Options{})
		if err != nil {
			return nil, fmt.Errorf("budget: dp B=%v: %w", b, err)
		}
		gb := greedyLedger[0].Benefit
		if gb < prevBenefit-1e-9 {
			monotone = false
		}
		prevBenefit = gb
		xs = append(xs, b)
		ys = append(ys, gb)
		rep.Rows = append(rep.Rows, []string{
			f2(b), f2(frac), f2(gb), f2(dpLedger[0].Benefit), f2(greedyLedger[0].Cost),
		})
	}
	rep.Series = []textplot.Series{{Name: "greedy benefit", X: xs, Y: ys}}
	rep.XLabel = "per-round budget B"
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"benefit is monotone in the budget: %v", monotone))
	last := ys[len(ys)-1]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"full budget recovers the unconstrained benefit (%.1f vs %.1f): %v",
		last, refBenefit, last >= refBenefit-1e-6))
	// Diminishing returns: the first half of the budget buys more than
	// the second half.
	mid := ys[3] // frac 0.5
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"diminishing returns (first half of budget buys more than the rest): %v",
		mid-ys[0] >= last-mid))
	return rep, nil
}
