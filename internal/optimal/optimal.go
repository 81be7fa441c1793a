// Package optimal provides a brute-force reference solver for the
// single-agent contract-design subproblem: it grid-searches the space of
// monotone piecewise-linear contracts directly, with no knowledge of the
// paper's candidate construction, and returns the best contract found.
//
// It exists to validate near-optimality claims empirically (the ablation
// experiment in DESIGN.md §4): on small instances the grid optimum brackets
// the true optimum, so comparing core.DesignInto's utility against it measures
// the real optimality gap rather than trusting Theorem 4.1 alone.
//
// Complexity is Θ(grid^m) best responses, so callers must keep m small; the
// package enforces a budget.
package optimal

import (
	"errors"
	"fmt"
	"math"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/worker"
)

// ErrBudget is returned when grid^m exceeds the evaluation budget.
var ErrBudget = errors.New("optimal: search space exceeds budget")

// Options tunes the search.
type Options struct {
	// SlopeGrid is the number of grid points per piece slope (≥ 2).
	SlopeGrid int
	// MaxSlope caps the per-piece slope; 0 derives it from the agent's
	// Case II boundary at the steepest piece (slopes above that never
	// help: the worker already moves to the right edge).
	MaxSlope float64
	// Budget caps total contract evaluations; 0 means 2,000,000.
	Budget int
}

// Result is the best contract the grid search found.
type Result struct {
	// Contract is the best grid contract.
	Contract *contract.PiecewiseLinear
	// Response is the agent's best response to it.
	Response worker.Response
	// RequesterUtility is w·ψ(y*) − μ·ξ(y*) at the best response.
	RequesterUtility float64
	// Evaluated is the number of contracts scored.
	Evaluated int
}

// Search enumerates slope combinations on the cfg.Part grid and returns
// the contract maximizing the requester's utility under the agent's exact
// best response.
func Search(a *worker.Agent, cfg core.Config, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(cfg.Part.YMax()); err != nil {
		return nil, fmt.Errorf("optimal: %w", err)
	}
	if opts.SlopeGrid < 2 {
		return nil, fmt.Errorf("optimal: slope grid %d < 2", opts.SlopeGrid)
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = 2_000_000
	}
	m := cfg.Part.M
	total := 1
	for i := 0; i < m; i++ {
		total *= opts.SlopeGrid
		if total > budget {
			return nil, fmt.Errorf("optimal: %d^%d evaluations: %w", opts.SlopeGrid, m, ErrBudget)
		}
	}

	maxSlope := opts.MaxSlope
	if maxSlope <= 0 {
		// Beyond the steepest Case II boundary a slope only overpays; use
		// twice that as a safe cap.
		maxSlope = 2 * core.CaseBoundaryUpper(a, cfg.Part, m)
		if maxSlope <= 0 {
			maxSlope = 1
		}
	}

	knots := cfg.Part.Knots(a.Psi)
	slopes := make([]float64, opts.SlopeGrid)
	for i := range slopes {
		slopes[i] = maxSlope * float64(i) / float64(opts.SlopeGrid-1)
	}

	best := &Result{RequesterUtility: math.Inf(-1)}
	choice := make([]int, m)
	for {
		// Build and evaluate the contract for the current choice vector.
		b := contract.NewBuilder(knots[0], 0)
		for l := 1; l <= m; l++ {
			b.AppendSlope(knots[l], slopes[choice[l-1]])
		}
		c, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("optimal: build: %w", err)
		}
		resp, err := a.BestResponse(c, cfg.Part)
		if err != nil {
			return nil, fmt.Errorf("optimal: best response: %w", err)
		}
		u := cfg.W*resp.Feedback - cfg.Mu*resp.Compensation
		best.Evaluated++
		if u > best.RequesterUtility {
			best.RequesterUtility = u
			best.Contract = c
			best.Response = resp
		}
		// Odometer increment over the choice vector.
		i := 0
		for ; i < m; i++ {
			choice[i]++
			if choice[i] < opts.SlopeGrid {
				break
			}
			choice[i] = 0
		}
		if i == m {
			return best, nil
		}
	}
}
