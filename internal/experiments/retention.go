package experiments

import (
	"context"
	"fmt"

	"dyncontract/internal/baseline"
	"dyncontract/internal/platform"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/textplot"
)

// retentionReservations sweeps the workers' outside option u₀.
var retentionReservations = []float64{0, 0.5, 1, 2, 4}

// RunRetention evaluates the retention half of the paper's promise
// ("incentivize users' quality AND retention"): workers have an outside
// option u₀ and decline offers whose best achievable utility falls short.
// The dynamic contract satisfies individual rationality by lifting
// compensation minimally (core's participation lift); the fixed-payment
// baseline has no such lever and bleeds workers as u₀ grows.
//
// Expected shapes: the dynamic policy retains every worker at every u₀
// while fixed pay's participation collapses, and the dynamic requester's
// utility degrades smoothly (paying exactly the lift, never more).
func RunRetention(p *synthpop.Pipeline, params Params) (*Report, error) {
	rep := &Report{
		ID:     "retention",
		Title:  "worker retention vs outside option u0 (extension)",
		Header: []string{"u0", "policy", "participating", "declined", "utility"},
	}
	ctx := context.Background()
	dynamicRetainsAll := true
	fixedLosesWorkers := false
	var xs, dynUtil []float64
	for _, u0 := range retentionReservations {
		pop, err := p.BuildPopulation(params.Params, 60)
		if err != nil {
			return nil, err
		}
		for _, a := range pop.Agents {
			a.Reservation = u0
		}
		for _, pol := range []platform.Policy{
			&platform.DynamicPolicy{},
			&baseline.FixedPayment{Amount: 1},
		} {
			ledger, err := runLedger(ctx, pop, pol, 1, params)
			if err != nil {
				return nil, fmt.Errorf("retention u0=%v %s: %w", u0, pol.Name(), err)
			}
			participating, declined := 0, 0
			for _, oc := range ledger[0].Outcomes {
				switch {
				case oc.Declined:
					declined++
				case !oc.Excluded:
					participating++
				}
			}
			if _, isDyn := pol.(*platform.DynamicPolicy); isDyn {
				if declined > 0 {
					dynamicRetainsAll = false
				}
				xs = append(xs, u0)
				dynUtil = append(dynUtil, ledger[0].Utility)
			} else if declined > 0 {
				fixedLosesWorkers = true
			}
			rep.Rows = append(rep.Rows, []string{
				f2(u0), pol.Name(),
				fmt.Sprintf("%d", participating), fmt.Sprintf("%d", declined),
				f2(ledger[0].Utility),
			})
		}
	}
	rep.Series = []textplot.Series{{Name: "dynamic utility", X: xs, Y: dynUtil}}
	rep.XLabel = "outside option u0"
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"dynamic contract retains every worker at every u0 (individual rationality lift): %v", dynamicRetainsAll))
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"fixed payment loses workers as u0 grows: %v", fixedLosesWorkers))
	return rep, nil
}
