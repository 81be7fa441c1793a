// Adaptivepricing: contracts adapt round by round as behaviour drifts.
//
// Run with:
//
//	go run ./examples/adaptivepricing
//
// The paper's contracts are dynamic: re-derived every round from updated
// estimates. This example drives the marketplace through a drift scenario
// in which a subset of honest workers gradually turns malicious mid-run
// (their estimated malice probability and requester weight deteriorate),
// and shows the dynamic policy repricing them downward while a static
// (round-0, frozen) contract set keeps overpaying.
package main

import (
	"context"
	"fmt"
	"log"

	"dyncontract/internal/contract"
	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/telemetry"
)

// frozenPolicy designs contracts once and re-serves them forever.
type frozenPolicy struct {
	inner  platform.Policy
	cached map[string]*contract.PiecewiseLinear
}

func (p *frozenPolicy) Name() string { return "frozen-round0" }

func (p *frozenPolicy) Contracts(ctx context.Context, pop *platform.Population) (map[string]*contract.PiecewiseLinear, error) {
	if p.cached == nil {
		c, err := p.inner.Contracts(ctx, pop)
		if err != nil {
			return nil, err
		}
		p.cached = c
	}
	return p.cached, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptivepricing: ")

	pipe, err := synthpop.BuildPipeline(synth.SmallScale(31))
	if err != nil {
		log.Fatalf("pipeline: %v", err)
	}
	params := synthpop.DefaultParams()

	const rounds = 6
	// Drift: each round, the first few honest workers' weight degrades —
	// the requester's estimators notice them drifting toward bias.
	drift := func(turned []string) func(int, *platform.Population) {
		return func(round int, pop *platform.Population) {
			if round == 0 {
				return
			}
			for _, id := range turned {
				pop.Weights[id] *= 0.55
				if pop.MaliceProb[id] < 0.9 {
					pop.MaliceProb[id] += 0.15
				}
			}
		}
	}

	// The engine's design cache composes with drift: the drifted workers'
	// weights change every round (fresh fingerprints, honest misses) while
	// the stable majority's designs are reused round after round.
	run := func(pol platform.Policy, reg *telemetry.Registry) ([]platform.Round, engine.CacheStats) {
		pop, err := pipe.BuildPopulation(params, 120)
		if err != nil {
			log.Fatalf("population: %v", err)
		}
		var turned []string
		for _, a := range pop.Agents[:4] {
			turned = append(turned, a.ID)
		}
		cache := engine.NewCache()
		ledger, err := engine.RunLedger(context.Background(), pop, engine.Config{
			Policy:  pol,
			Rounds:  rounds,
			Drift:   drift(turned),
			Cache:   cache,
			Metrics: reg,
		})
		if err != nil {
			log.Fatalf("simulate %s: %v", pol.Name(), err)
		}
		return ledger, cache.Stats()
	}

	// The dynamic run carries a telemetry registry (engine.Config.Metrics):
	// per-stage timings, ledger gauges, and the cache counters all land in
	// one snapshot, without changing the simulated ledger.
	reg := telemetry.NewRegistry()
	dynamic, stats := run(&platform.DynamicPolicy{}, reg)
	frozen, _ := run(&frozenPolicy{inner: &platform.DynamicPolicy{}}, telemetry.Nop)

	fmt.Println("four workers drift malicious from round 1 onward")
	fmt.Println("\nround  dynamic-utility  frozen-utility  (dynamic reprices, frozen overpays)")
	for r := 0; r < rounds; r++ {
		fmt.Printf("%5d  %15.2f  %14.2f\n", r, dynamic[r].Utility, frozen[r].Utility)
	}
	fmt.Printf("\ntotals: dynamic %.2f vs frozen %.2f\n",
		platform.TotalUtility(dynamic), platform.TotalUtility(frozen))
	fmt.Printf("dynamic policy design cache: %d hits, %d misses over %d rounds\n",
		stats.Hits, stats.Misses, rounds)

	// What the instrumented run measured: mean per-round stage timings and
	// the registry's view of the cache (identical to stats above — the
	// cache publishes its counts to the registry at every round end).
	snap := reg.Snapshot()
	fmt.Println("\ntelemetry (dynamic run):")
	for _, stage := range []struct{ label, metric string }{
		{"design ", engine.MetricStageDesignSeconds},
		{"respond", engine.MetricStageRespondSeconds},
		{"settle ", engine.MetricStageSettleSeconds},
		{"observe", engine.MetricStageObserveSeconds},
		{"round  ", engine.MetricRoundSeconds},
	} {
		h := snap.Histograms[stage.metric]
		fmt.Printf("  %s  mean %8.3f ms over %d rounds\n", stage.label, h.Mean()*1e3, h.Count)
	}
	fmt.Printf("  cache    %d hits, %d misses (registry view)\n",
		snap.Counters[engine.MetricCacheHits], snap.Counters[engine.MetricCacheMisses])

	// Show the repricing on one drifted worker (populations are built
	// deterministically, so the first agent is the same in both runs).
	refPop, err := pipe.BuildPopulation(params, 120)
	if err != nil {
		log.Fatalf("population: %v", err)
	}
	id := refPop.Agents[0].ID
	fmt.Printf("\nper-round pay for drifted worker %s under the dynamic policy:\n  ", id)
	for r := 0; r < rounds; r++ {
		for _, oc := range dynamic[r].Outcomes {
			if oc.AgentID == id {
				fmt.Printf("%.3f ", oc.Compensation)
			}
		}
	}
	fmt.Println()
}
