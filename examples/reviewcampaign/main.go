// Reviewcampaign: the full paper pipeline on a synthetic review campaign.
//
// Run with:
//
//	go run ./examples/reviewcampaign
//
// A requester crowdsources product reviews; the worker pool mixes honest
// reviewers, lone fake-review writers, and paid collusion rings. The
// example mirrors §IV's strategy framework (Fig. 4): synthesize the trace,
// estimate malice, cluster collusive communities, fit per-class effort
// functions, build per-worker contracts, and simulate the marketplace —
// comparing the dynamic contract against excluding all suspects.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"

	"dyncontract/internal/baseline"
	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/worker"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reviewcampaign: ")

	// Stage 1-4: trace → malice estimates → communities → fitted ψ per
	// class, all bundled in the pipeline.
	pipe, err := synthpop.BuildPipeline(synth.SmallScale(7))
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	fmt.Printf("trace: %d reviews by %d workers over %d products\n",
		len(pipe.Trace.Reviews), len(pipe.Trace.Workers), pipe.Trace.NumProducts())
	fmt.Printf("classified: %d honest, %d non-collusive malicious, %d collusive in %d communities\n",
		len(pipe.HonestIDs), len(pipe.NCMIDs), len(pipe.CMIDs), len(pipe.Communities))
	classes := make([]worker.Class, 0, len(pipe.ClassFit))
	for cls := range pipe.ClassFit {
		classes = append(classes, cls)
	}
	slices.Sort(classes)
	for _, cls := range classes {
		fit := pipe.ClassFit[cls]
		fmt.Printf("  fitted %v: %v (NoR %.2f)\n", cls, fit.Quadratic, fit.NoR)
	}

	// Stage 5: materialize the population and design contracts each round.
	params := synthpop.DefaultParams()
	pop, err := pipe.BuildPopulation(params, 150)
	if err != nil {
		log.Fatalf("population: %v", err)
	}
	fmt.Printf("\nsimulating %d agents over 4 rounds...\n", len(pop.Agents))

	// Stage 6: run the marketplace on the engine. Each policy gets its own
	// design cache: workers fitted per class share effort functions and
	// cost parameters, so a whole class shares one design menu whatever
	// its weights, and rounds after the first are solve-free.
	ctx := context.Background()
	for _, pol := range []platform.Policy{
		&platform.DynamicPolicy{},
		&baseline.ExcludeMalicious{Threshold: 0.5},
	} {
		cache := engine.NewCache()
		ledger, err := engine.RunLedger(ctx, pop, engine.Config{Policy: pol, Rounds: 4, Cache: cache})
		if err != nil {
			log.Fatalf("simulate %s: %v", pol.Name(), err)
		}
		total := platform.TotalUtility(ledger)
		fmt.Printf("\npolicy %-25s total utility %10.2f\n", pol.Name(), total)
		s := cache.Stats()
		fmt.Printf("  design cache: %d hits, %d misses over 4 rounds (%d design menus)\n",
			s.Hits, s.Misses, s.Entries)

		// Who earned what, by class, in the last round?
		perClass := map[worker.Class][]float64{}
		for _, oc := range ledger[len(ledger)-1].Outcomes {
			if !oc.Excluded {
				comp := oc.Compensation
				if oc.Size > 1 {
					comp /= float64(oc.Size) // per-member share in a ring
				}
				perClass[oc.Class] = append(perClass[oc.Class], comp)
			}
		}
		for _, cls := range []worker.Class{worker.Honest, worker.NonCollusiveMalicious, worker.CollusiveMalicious} {
			comps := perClass[cls]
			if len(comps) == 0 {
				fmt.Printf("  %-28s excluded\n", cls)
				continue
			}
			var sum float64
			for _, c := range comps {
				sum += c
			}
			fmt.Printf("  %-28s avg pay %.3f (%d agents)\n", cls, sum/float64(len(comps)), len(comps))
		}
	}
	fmt.Println("\nthe dynamic contract keeps useful-but-biased workers at discounted pay;")
	fmt.Println("exclusion forfeits their feedback entirely — the Fig. 8(c) result.")
}
