// Budgetedcampaign: running a campaign under a payment budget and worker
// outside options.
//
// Run with:
//
//	go run ./examples/budgetedcampaign
//
// Two practical constraints the paper's related work motivates are layered
// onto the dynamic contract: a per-round compensation budget (the
// requester cannot spend more than B, solved as a multiple-choice knapsack
// over each worker's candidate-contract menu) and worker reservation
// utilities (workers with outside options decline offers that don't clear
// them; the design lifts compensation minimally to retain who is worth
// retaining).
package main

import (
	"context"
	"fmt"
	"log"

	"dyncontract/internal/budget"
	"dyncontract/internal/platform"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("budgetedcampaign: ")

	pipe, err := synthpop.BuildPipeline(synth.SmallScale(77))
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	params := synthpop.DefaultParams()
	ctx := context.Background()

	// Reference: what the unconstrained dynamic policy spends and earns.
	pop, err := pipe.BuildPopulation(params, 60)
	if err != nil {
		log.Fatalf("population: %v", err)
	}
	free, err := platform.Simulate(ctx, pop, &platform.DynamicPolicy{}, 1, platform.Options{})
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	fmt.Printf("unconstrained: benefit %.1f at cost %.1f (%d agents)\n\n",
		free[0].Benefit, free[0].Cost, len(pop.Agents))

	fmt.Println("budget sweep (greedy MCKP over candidate menus):")
	fmt.Printf("  %-10s %12s %12s %14s\n", "budget", "benefit", "cost", "contracted")
	for _, frac := range []float64{0.1, 0.25, 0.5, 1.0} {
		b := frac * free[0].Cost
		ledger, err := platform.Simulate(ctx, pop, &budget.Policy{Budget: b}, 1, platform.Options{})
		if err != nil {
			log.Fatalf("budget %v: %v", b, err)
		}
		contracted := 0
		for _, oc := range ledger[0].Outcomes {
			if !oc.Excluded && !oc.Declined {
				contracted++
			}
		}
		fmt.Printf("  %-10.1f %12.1f %12.1f %10d/%d\n",
			b, ledger[0].Benefit, ledger[0].Cost, contracted, len(pop.Agents))
	}

	fmt.Println("\nnow give every worker an outside option u0 = 2:")
	pop2, err := pipe.BuildPopulation(params, 60)
	if err != nil {
		log.Fatalf("population: %v", err)
	}
	for _, a := range pop2.Agents {
		a.Reservation = 2
	}
	withIR, err := platform.Simulate(ctx, pop2, &platform.DynamicPolicy{}, 1, platform.Options{})
	if err != nil {
		log.Fatalf("simulate IR: %v", err)
	}
	declined := 0
	for _, oc := range withIR[0].Outcomes {
		if oc.Declined {
			declined++
		}
	}
	fmt.Printf("  dynamic contract with IR lift: %d declined, benefit %.1f, cost %.1f\n",
		declined, withIR[0].Benefit, withIR[0].Cost)
	fmt.Printf("  (vs unconstrained cost %.1f — the delta is the retention premium)\n",
		free[0].Cost)
}
