// Package budget adds the budget-feasibility dimension the paper's
// related work revolves around (Singer's budget-feasible mechanisms [8],
// budget-limited labeling [4], [5]): choose, for every worker, which
// candidate contract to post — or none — so the requester's total benefit
// is maximized while total expected compensation stays within a budget B.
//
// core.DesignInto already produces a per-worker *menu*: one candidate ξ^(k)
// per target interval k, each with a predicted cost (the compensation the
// worker will collect) and benefit (w·ψ(y*)). Selecting one option per
// menu under a budget is the multiple-choice knapsack problem (MCKP). The
// package provides:
//
//   - SolveDP — exact (up to cost discretization) dynamic program, the
//     reference for small instances;
//   - SolveGreedy — the classic LP-relaxation greedy on the dominance-
//     filtered efficiency frontier, with the best-single-option fallback
//     that yields the standard 1/2-approximation guarantee.
package budget

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dyncontract/internal/core"
)

// ErrBadInput is returned for invalid menus or budgets.
var ErrBadInput = errors.New("budget: invalid input")

// Option is one postable contract for an agent: its predicted cost and
// benefit. K = 0 encodes "post no contract" (zero cost, zero benefit).
type Option struct {
	// K is the candidate's target interval (0 = no contract).
	K int
	// Cost is the predicted compensation to be paid.
	Cost float64
	// Benefit is the requester's predicted gross benefit w·ψ(y*).
	Benefit float64
}

// Menu is one agent's option set. A valid menu always contains the K = 0
// option.
type Menu struct {
	// AgentID identifies the agent.
	AgentID string
	// Options are the postable choices, including K = 0.
	Options []Option
}

// Validate checks the menu.
func (m Menu) Validate() error {
	if m.AgentID == "" {
		return fmt.Errorf("menu with empty agent ID: %w", ErrBadInput)
	}
	if len(m.Options) == 0 {
		return fmt.Errorf("menu %s has no options: %w", m.AgentID, ErrBadInput)
	}
	hasZero := false
	for _, o := range m.Options {
		if math.IsNaN(o.Cost) || math.IsNaN(o.Benefit) || o.Cost < 0 {
			return fmt.Errorf("menu %s option %+v invalid: %w", m.AgentID, o, ErrBadInput)
		}
		if o.K == 0 && o.Cost == 0 {
			hasZero = true
		}
	}
	if !hasZero {
		return fmt.Errorf("menu %s lacks the no-contract option: %w", m.AgentID, ErrBadInput)
	}
	return nil
}

// MenuFromResult converts a core.DesignInto result into a budget menu: each
// candidate becomes an option with its predicted compensation as cost and
// w times its predicted feedback as benefit, plus the no-contract option.
func MenuFromResult(res *core.Result, w float64) Menu {
	menu := Menu{
		AgentID: res.Agent.ID,
		Options: []Option{{K: 0, Cost: 0, Benefit: 0}},
	}
	for _, cand := range res.Candidates {
		menu.Options = append(menu.Options, Option{
			K:       cand.K,
			Cost:    cand.Response.Compensation,
			Benefit: w * cand.Response.Feedback,
		})
	}
	return menu
}

// Allocation is a chosen option per agent.
type Allocation struct {
	// Choice maps agent ID to the chosen option.
	Choice map[string]Option
	// TotalCost and TotalBenefit aggregate the selection.
	TotalCost, TotalBenefit float64
}

// SolveDP solves the MCKP by dynamic programming over a discretized
// budget axis with the given number of steps (≥ 1). Costs are rounded UP
// to grid points, so the returned allocation never exceeds the true
// budget; finer grids lose less value. Complexity O(Σ|options| × steps).
func SolveDP(menus []Menu, budget float64, steps int) (*Allocation, error) {
	if err := validateInput(menus, budget); err != nil {
		return nil, err
	}
	if steps < 1 {
		return nil, fmt.Errorf("steps=%d must be >= 1: %w", steps, ErrBadInput)
	}
	unit := budget / float64(steps)
	if budget == 0 {
		// Degenerate budget: only zero-cost options are feasible, so the
		// grid collapses to a single state.
		steps = 0
		unit = 1
	}

	// dp[b] = best benefit using budget grid b; choice[i][b] = option
	// index chosen for menu i at that state.
	dp := make([]float64, steps+1)
	chosen := make([][]int16, len(menus))
	for i := range chosen {
		chosen[i] = make([]int16, steps+1)
	}
	next := make([]float64, steps+1)
	for i, m := range menus {
		for b := 0; b <= steps; b++ {
			best := math.Inf(-1)
			var bestOpt int16
			for oi, o := range m.Options {
				gridCost := int(math.Ceil(o.Cost/unit - 1e-12))
				if o.Cost == 0 {
					gridCost = 0
				}
				if gridCost > b {
					continue
				}
				if v := dp[b-gridCost] + o.Benefit; v > best {
					best = v
					bestOpt = int16(oi)
				}
			}
			next[b] = best
			chosen[i][b] = bestOpt
		}
		dp, next = next, dp
	}

	// Trace back the choices from the full budget.
	alloc := &Allocation{Choice: make(map[string]Option, len(menus))}
	b := steps
	// Recompute forward tables per menu in reverse using the stored
	// choices (chosen[i][b] was computed against the dp state after menus
	// 0..i-1, so replay backwards).
	for i := len(menus) - 1; i >= 0; i-- {
		oi := chosen[i][b]
		o := menus[i].Options[oi]
		alloc.Choice[menus[i].AgentID] = o
		alloc.TotalCost += o.Cost
		alloc.TotalBenefit += o.Benefit
		gridCost := int(math.Ceil(o.Cost/unit - 1e-12))
		if o.Cost == 0 {
			gridCost = 0
		}
		b -= gridCost
	}
	return alloc, nil
}

// SolveGreedy solves the MCKP by the LP-relaxation greedy: per menu, keep
// the efficiency frontier (dominance-filtered, concavified), then take
// incremental upgrades in decreasing benefit-per-cost order while the
// budget allows. Finally, if a single option beats the greedy total, take
// it alone — the classic fix that guarantees ≥ 1/2 of the optimum.
func SolveGreedy(menus []Menu, budget float64) (*Allocation, error) {
	if err := validateInput(menus, budget); err != nil {
		return nil, err
	}

	type increment struct {
		menuIdx    int
		optIdx     int // index into the frontier
		deltaCost  float64
		deltaBen   float64
		efficiency float64
	}
	frontiers := make([][]Option, len(menus))
	var incs []increment
	for i, m := range menus {
		f := frontier(m.Options)
		frontiers[i] = f
		for j := 1; j < len(f); j++ {
			dc := f[j].Cost - f[j-1].Cost
			db := f[j].Benefit - f[j-1].Benefit
			incs = append(incs, increment{
				menuIdx: i, optIdx: j,
				deltaCost: dc, deltaBen: db,
				efficiency: db / dc,
			})
		}
	}
	// Concavified frontiers have decreasing per-menu efficiency, so a
	// global sort yields a valid upgrade order (a menu's j-th upgrade
	// always precedes its (j+1)-th).
	sort.SliceStable(incs, func(a, b int) bool { return incs[a].efficiency > incs[b].efficiency })

	level := make([]int, len(menus)) // current frontier index per menu
	var cost, benefit float64
	for _, inc := range incs {
		if level[inc.menuIdx] != inc.optIdx-1 {
			continue // out-of-order upgrade (can happen after skips); drop
		}
		if cost+inc.deltaCost > budget+1e-12 {
			continue
		}
		level[inc.menuIdx] = inc.optIdx
		cost += inc.deltaCost
		benefit += inc.deltaBen
	}

	alloc := &Allocation{Choice: make(map[string]Option, len(menus))}
	for i, m := range menus {
		o := frontiers[i][level[i]]
		alloc.Choice[m.AgentID] = o
		alloc.TotalCost += o.Cost
		alloc.TotalBenefit += o.Benefit
	}

	// Best-single fallback: the highest-benefit affordable option alone.
	bestSingle := Option{}
	bestMenu := -1
	for i, m := range menus {
		for _, o := range m.Options {
			if o.Cost <= budget && o.Benefit > bestSingle.Benefit {
				bestSingle = o
				bestMenu = i
			}
		}
	}
	if bestMenu >= 0 && bestSingle.Benefit > alloc.TotalBenefit {
		single := &Allocation{Choice: make(map[string]Option, len(menus))}
		for i, m := range menus {
			if i == bestMenu {
				single.Choice[m.AgentID] = bestSingle
				continue
			}
			single.Choice[m.AgentID] = zeroOption(m)
		}
		single.TotalCost = bestSingle.Cost
		single.TotalBenefit = bestSingle.Benefit
		return single, nil
	}
	return alloc, nil
}

// frontier dominance-filters and concavifies a menu's options: sorted by
// cost, strictly increasing benefit, and decreasing incremental
// efficiency (upper-left convex hull). The K = 0 origin is always first.
func frontier(options []Option) []Option {
	sorted := append([]Option(nil), options...)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Cost != sorted[b].Cost {
			return sorted[a].Cost < sorted[b].Cost
		}
		return sorted[a].Benefit > sorted[b].Benefit
	})
	// Dominance filter: keep options whose benefit strictly improves.
	var dom []Option
	bestBen := math.Inf(-1)
	for _, o := range sorted {
		if o.Benefit > bestBen {
			dom = append(dom, o)
			bestBen = o.Benefit
		}
	}
	// Ensure the zero-cost origin exists (Validate guarantees one, but a
	// zero-cost positive-benefit option may have displaced it; then that
	// option IS the origin).
	if dom[0].Cost > 0 {
		dom = append([]Option{{K: 0}}, dom...)
	}
	// Concavify: upper convex hull over (cost, benefit).
	hull := dom[:1]
	for _, o := range dom[1:] {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Efficiency of b over a must exceed that of o over b;
			// otherwise b is LP-dominated.
			if (b.Benefit-a.Benefit)*(o.Cost-b.Cost) >= (o.Benefit-b.Benefit)*(b.Cost-a.Cost) {
				break
			}
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, o)
	}
	return hull
}

// zeroOption returns a menu's no-contract option.
func zeroOption(m Menu) Option {
	for _, o := range m.Options {
		if o.K == 0 && o.Cost == 0 {
			return o
		}
	}
	return Option{}
}

func validateInput(menus []Menu, budget float64) error {
	if len(menus) == 0 {
		return fmt.Errorf("no menus: %w", ErrBadInput)
	}
	if budget < 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return fmt.Errorf("budget=%v: %w", budget, ErrBadInput)
	}
	seen := make(map[string]bool, len(menus))
	for _, m := range menus {
		if err := m.Validate(); err != nil {
			return err
		}
		if seen[m.AgentID] {
			return fmt.Errorf("duplicate menu for %s: %w", m.AgentID, ErrBadInput)
		}
		seen[m.AgentID] = true
	}
	return nil
}
