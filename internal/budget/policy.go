package budget

import (
	"context"
	"fmt"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/platform"
	"dyncontract/internal/solver"
)

// Policy is a budget-feasible pricing policy for the marketplace: each
// round it designs every agent's candidate menu in parallel, solves the
// MCKP under the budget, and posts the chosen candidate (or no contract).
type Policy struct {
	// Budget is the per-round compensation budget B.
	Budget float64
	// UseDP selects the exact DP (with DPSteps grid points) instead of
	// the greedy; greedy is the default and scales to large populations.
	UseDP bool
	// DPSteps is the DP cost grid (default 2000).
	DPSteps int
}

var _ platform.Policy = (*Policy)(nil)

// Name implements platform.Policy.
func (p *Policy) Name() string {
	algo := "greedy"
	if p.UseDP {
		algo = "dp"
	}
	return fmt.Sprintf("budgeted-dynamic(B=%.1f,%s)", p.Budget, algo)
}

// Contracts implements platform.Policy.
func (p *Policy) Contracts(ctx context.Context, pop *platform.Population) (map[string]*contract.PiecewiseLinear, error) {
	subs := make([]solver.Subproblem, len(pop.Agents))
	for i, a := range pop.Agents {
		subs[i] = solver.Subproblem{
			Agent: a,
			// WantCandidates: the MCKP needs the full per-k menu, not just
			// the argmax winner the batched solve would otherwise return.
			Config: core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID], WantCandidates: true},
		}
	}
	outcomes, err := solver.SolveAll(ctx, subs, solver.Options{})
	if err != nil {
		return nil, fmt.Errorf("budget: design: %w", err)
	}

	menus := make([]Menu, len(outcomes))
	byAgent := make(map[string]*core.Result, len(outcomes))
	for i, o := range outcomes {
		res := o.Result
		menus[i] = MenuFromResult(res, pop.Weights[res.Agent.ID])
		byAgent[res.Agent.ID] = res
	}

	var alloc *Allocation
	if p.UseDP {
		steps := p.DPSteps
		if steps <= 0 {
			steps = 2000
		}
		alloc, err = SolveDP(menus, p.Budget, steps)
	} else {
		alloc, err = SolveGreedy(menus, p.Budget)
	}
	if err != nil {
		return nil, fmt.Errorf("budget: allocate: %w", err)
	}

	contracts := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	for id, opt := range alloc.Choice {
		if opt.K == 0 {
			continue // excluded this round: no entry = nil contract
		}
		res := byAgent[id]
		contracts[id] = res.Candidates[opt.K-1].Contract
	}
	return contracts, nil
}
