// Package baseline implements the comparison pricing strategies of the
// evaluation:
//
//   - ExcludeMalicious — the Fig. 8(c) baseline: design dynamic contracts
//     for workers believed honest, but drop every worker whose estimated
//     malice probability crosses a threshold. It forfeits the useful
//     feedback of biased-but-accurate malicious workers and mis-drops
//     honest workers on estimator false positives.
//   - FixedPayment — the fixed-price policy of [1], [2]: one flat payment
//     per task for everyone, independent of feedback. Without marginal
//     reward, rational honest workers exert zero effort.
package baseline

import (
	"context"
	"fmt"

	"dyncontract/internal/contract"
	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
)

// ExcludeMalicious drops agents with MaliceProb above Threshold and prices
// the rest with the dynamic policy.
type ExcludeMalicious struct {
	// Threshold is the exclusion cutoff on the estimated malice
	// probability (e.g. 0.5).
	Threshold float64

	// inner persists across rounds so the engine's design dedup, scratch
	// buffers, and any attached cache carry over.
	inner platform.DynamicPolicy
}

var (
	_ platform.Policy  = (*ExcludeMalicious)(nil)
	_ engine.CacheUser = (*ExcludeMalicious)(nil)
)

// Name implements platform.Policy.
func (p *ExcludeMalicious) Name() string {
	return fmt.Sprintf("exclude-malicious(>%.2f)", p.Threshold)
}

// UseCache implements engine.CacheUser by forwarding the design cache to
// the inner dynamic policy.
func (p *ExcludeMalicious) UseCache(c *engine.Cache) { p.inner.UseCache(c) }

// Contracts implements platform.Policy: nil contracts for excluded agents,
// dynamic contracts for the rest.
func (p *ExcludeMalicious) Contracts(ctx context.Context, pop *platform.Population) (map[string]*contract.PiecewiseLinear, error) {
	kept := &platform.Population{
		Weights:    pop.Weights,
		MaliceProb: pop.MaliceProb,
		Part:       pop.Part,
		Mu:         pop.Mu,
	}
	for _, a := range pop.Agents {
		if pop.MaliceProb[a.ID] > p.Threshold {
			continue
		}
		kept.Agents = append(kept.Agents, a)
	}
	contracts := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	if len(kept.Agents) > 0 {
		designed, err := p.inner.Contracts(ctx, kept)
		if err != nil {
			return nil, fmt.Errorf("baseline: inner dynamic design: %w", err)
		}
		for id, c := range designed {
			contracts[id] = c
		}
	}
	// Excluded agents simply have no entry (nil contract = excluded).
	return contracts, nil
}

// FixedPayment offers every agent the same flat payment regardless of
// feedback.
type FixedPayment struct {
	// Amount is the flat per-task payment.
	Amount float64
}

var _ platform.Policy = (*FixedPayment)(nil)

// Name implements platform.Policy.
func (p *FixedPayment) Name() string {
	return fmt.Sprintf("fixed-payment(%.2f)", p.Amount)
}

// Contracts implements platform.Policy.
func (p *FixedPayment) Contracts(_ context.Context, pop *platform.Population) (map[string]*contract.PiecewiseLinear, error) {
	contracts := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	for _, a := range pop.Agents {
		knots := pop.Part.Knots(a.Psi)
		flat, err := contract.Flat(knots[0], knots[len(knots)-1], p.Amount)
		if err != nil {
			return nil, fmt.Errorf("baseline: flat contract for %s: %w", a.ID, err)
		}
		contracts[a.ID] = flat
	}
	return contracts, nil
}
