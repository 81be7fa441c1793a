// Command platformsim runs the multi-round crowdsourcing marketplace
// simulation end to end: synthesize a trace, run the §IV pipeline, build
// the worker population, and simulate the requested pricing policies
// side by side.
//
// Usage:
//
//	platformsim [-scale small|paper] [-seed n] [-rounds n]
//	            [-policies dynamic,exclude,fixed] [-threshold p] [-amount c]
//	            [-nocache] [-nomemo] [-stats]
//	            [-drift-agents k] [-churn]
//	            [-join-every k] [-leave-every k]
//	            [-metrics out.jsonl] [-metrics-listen addr]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-trace] [-trace-sample p] [-trace-out file]
//
// The observability flags attach a telemetry registry
// to the run: -metrics appends one JSONL snapshot per simulated round,
// -metrics-listen serves /metrics in Prometheus text format plus
// net/http/pprof for live scraping and profiling, and -cpuprofile /
// -memprofile write pprof profiles for offline analysis. -stats prints
// what each policy's run added to the engine and solver metrics
// (obs.FprintStats). -trace records
// one execution trace per policy run — rounds and their stages —
// and -trace-out writes the retained traces on exit (.json = Chrome
// trace_event format for Perfetto).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dyncontract/internal/baseline"
	"dyncontract/internal/engine"
	"dyncontract/internal/obs"
	"dyncontract/internal/platform"
	"dyncontract/internal/spans"
	"dyncontract/internal/synth"
	"dyncontract/internal/synthpop"
	"dyncontract/internal/telemetry"
)

// testHookServe, when set by a test, is called with the metrics server's
// bound address after every policy has run but before the session closes
// — the seam that lets tests scrape a fully populated /metrics endpoint.
var testHookServe func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "platformsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("platformsim", flag.ContinueOnError)
	var (
		scale       = fs.String("scale", "small", "trace scale: small or paper")
		seed        = fs.Int64("seed", 42, "generation seed")
		rounds      = fs.Int("rounds", 5, "number of task rounds")
		policies    = fs.String("policies", "dynamic,exclude,fixed", "comma-separated policies")
		threshold   = fs.Float64("threshold", 0.5, "exclusion threshold on malice probability")
		amount      = fs.Float64("amount", 1, "fixed-payment amount")
		perClass    = fs.Int("perclass", 200, "max agents sampled per class")
		noCache     = fs.Bool("nocache", false, "disable the cross-round design cache")
		noMemo      = fs.Bool("nomemo", false, "disable the cross-round best-response memo")
		stats       = fs.Bool("stats", false, "print the engine and solver metrics each policy's run added")
		driftAgents = fs.Int("drift-agents", 0, "scoped weight drift: oscillate the first k agents' weights each round, declared via Population.Touch")
		churn       = fs.Bool("churn", false, "mint fresh, never-repeating weights for every agent before each round, so every round's designs run the cold path (overrides -drift-agents)")
		joinEvery   = fs.Int("join-every", 0, "structural churn: every k-th round a fresh agent joins, declared via TouchJoin")
		leaveEvery  = fs.Int("leave-every", 0, "structural churn: every k-th round the oldest hook-joined agent leaves, declared via TouchLeave")
		obsFlags    obs.Flags
		traceFlags  obs.TraceFlags
	)
	obsFlags.Register(fs)
	traceFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// One registry spans the whole invocation; each policy's run adds its
	// rounds, and its fresh cache and memo their counts, to the same
	// metrics, so -stats prints the delta of each run.
	var reg *telemetry.Registry
	if obsFlags.Enabled() || *stats {
		reg = telemetry.NewRegistry()
	}
	sess, err := obsFlags.Start(reg)
	if err != nil {
		return err
	}
	defer sess.Close()
	if addr := sess.Addr(); addr != "" {
		fmt.Fprintf(out, "metrics: serving http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}

	var cfg synth.Config
	switch *scale {
	case "small":
		cfg = synth.SmallScale(*seed)
	case "paper":
		cfg = synth.PaperScale(*seed)
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	fmt.Fprintf(out, "building pipeline (%s scale, seed %d)...\n", *scale, *seed)
	pipe, err := synthpop.BuildPipeline(cfg)
	if err != nil {
		return err
	}
	params := synthpop.DefaultParams()
	pop, err := pipe.BuildPopulation(params, *perClass)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "population: %d agents (honest + NCM individuals, %d communities)\n\n",
		len(pop.Agents), len(pipe.Communities))

	ctx := context.Background()
	tracer, recorder := traceFlags.Build()

	// Scoped drift: oscillate the first k agents' weights around a base
	// snapshot taken once, before any policy runs — each policy sees the
	// exact same drift schedule, so cross-policy totals stay comparable —
	// and declare the touched IDs so the engine takes the sparse path.
	var driftHook func(int, *engine.Population)
	switch {
	case *churn:
		// All-cold steady state: every agent's weight is perturbed by a
		// factor unique to the round, so no design fingerprint ever
		// repeats and each round pays the full batched cold design path.
		// The base snapshot keeps the schedule identical across policies,
		// and the perturbation stays under 1% over any plausible -rounds.
		ids := make([]string, len(pop.Agents))
		base := make([]float64, len(pop.Agents))
		for i, a := range pop.Agents {
			ids[i] = a.ID
			base[i] = pop.Weights[a.ID]
		}
		driftHook = func(round int, p *engine.Population) {
			f := 1 + 1e-6*float64(round+1)
			for i, id := range ids {
				p.Weights[id] = base[i] * f
			}
			p.Touch(ids...)
		}
	case *driftAgents > 0:
		k := *driftAgents
		if k > len(pop.Agents) {
			k = len(pop.Agents)
		}
		ids := make([]string, k)
		base := make([]float64, k)
		for i := 0; i < k; i++ {
			ids[i] = pop.Agents[i].ID
			base[i] = pop.Weights[ids[i]]
		}
		driftHook = func(round int, p *engine.Population) {
			f := 1.0
			if round%2 == 0 {
				f = 1.01
			}
			for i, id := range ids {
				p.Weights[id] = base[i] * f
			}
			p.Touch(ids...)
		}
	}

	// Structural churn: layer joins/leaves on top of whatever scalar drift
	// hook is configured. Joiners clone the first agent's archetype under a
	// fresh ID (same fingerprint, so the design cache patches them in);
	// leaves remove the oldest hook-joined agent, so the population
	// oscillates instead of growing without bound and never loses an
	// original member. Policies share one Population, so cleanup() strips
	// any leftover joiners between runs — every policy sees the identical
	// churn schedule over the identical base population.
	var structCleanup func()
	if *joinEvery > 0 || *leaveEvery > 0 {
		if len(pop.Agents) == 0 {
			return fmt.Errorf("structural churn needs a non-empty population")
		}
		scalarHook := driftHook
		proto := pop.Agents[0]
		protoW := pop.Weights[proto.ID]
		protoMal, protoHasMal := pop.MaliceProb[proto.ID]
		var joined []string
		joinSeq := 0
		driftHook = func(round int, p *engine.Population) {
			if scalarHook != nil {
				scalarHook(round, p)
			}
			if *joinEvery > 0 && (round+1)%*joinEvery == 0 {
				na := *proto
				na.ID = fmt.Sprintf("sim-join-%05d", joinSeq)
				joinSeq++
				p.Agents = append(p.Agents, &na)
				p.Weights[na.ID] = protoW
				if protoHasMal {
					p.MaliceProb[na.ID] = protoMal
				}
				p.TouchJoin(na.ID)
				joined = append(joined, na.ID)
			}
			if *leaveEvery > 0 && (round+1)%*leaveEvery == 0 && len(joined) > 0 {
				id := joined[0]
				joined = joined[1:]
				for i, a := range p.Agents {
					if a.ID == id {
						p.Agents = append(p.Agents[:i], p.Agents[i+1:]...)
						break
					}
				}
				delete(p.Weights, id)
				delete(p.MaliceProb, id)
				p.TouchLeave(id)
			}
		}
		structCleanup = func() {
			for _, id := range joined {
				for i, a := range pop.Agents {
					if a.ID == id {
						pop.Agents = append(pop.Agents[:i], pop.Agents[i+1:]...)
						break
					}
				}
				delete(pop.Weights, id)
				delete(pop.MaliceProb, id)
			}
			joined = nil
			joinSeq = 0
			pop.Bump()
		}
	}

	var prev telemetry.Snapshot
	for _, name := range strings.Split(*policies, ",") {
		var pol platform.Policy
		switch strings.TrimSpace(name) {
		case "dynamic":
			pol = &platform.DynamicPolicy{}
		case "exclude":
			pol = &baseline.ExcludeMalicious{Threshold: *threshold}
		case "fixed":
			pol = &baseline.FixedPayment{Amount: *amount}
		default:
			return fmt.Errorf("unknown policy %q (want dynamic, exclude, or fixed)", name)
		}
		// The engine runs with a per-policy design cache and respond memo:
		// agents sharing an archetype share one design and one best
		// response, and static rounds after the first cost zero
		// Design/BestResponse calls.
		cfg := engine.Config{Policy: pol, Rounds: *rounds, Metrics: reg, Drift: driftHook}
		if !*noCache {
			cfg.Cache = engine.NewCache()
		}
		if !*noMemo {
			cfg.Memo = engine.NewRespondMemo()
		}
		if obsFlags.MetricsPath != "" {
			cfg.Observers = []engine.Observer{sess.RoundObserver()}
		}
		// One trace per policy run: the root span covers the whole
		// ledger, with engine.round / stage children below it.
		span := tracer.Root("platformsim.run")
		span.SetAttr("policy", pol.Name())
		span.SetInt("rounds", int64(*rounds))
		ledger, err := engine.RunLedger(spans.ContextWith(ctx, span), pop, cfg)
		span.End()
		if structCleanup != nil {
			structCleanup()
		}
		if err != nil {
			return fmt.Errorf("simulate %s: %w", pol.Name(), err)
		}
		fmt.Fprintf(out, "policy %s:\n", pol.Name())
		for _, r := range ledger {
			excluded := 0
			for _, oc := range r.Outcomes {
				if oc.Excluded {
					excluded++
				}
			}
			fmt.Fprintf(out, "  round %d: benefit=%10.2f cost=%10.2f utility=%10.2f excluded=%d\n",
				r.Index, r.Benefit, r.Cost, r.Utility, excluded)
		}
		fmt.Fprintf(out, "  total utility over %d rounds: %.2f\n", *rounds, platform.TotalUtility(ledger))
		if *stats {
			// Policies share one registry; the delta isolates this run.
			cur := reg.Snapshot()
			obs.FprintStats(out, prev, cur, obs.SimPrefixes...)
			prev = cur
		}
		fmt.Fprintln(out)
	}
	if err := traceFlags.Export(recorder); err != nil {
		return err
	}
	if traceFlags.Out != "" {
		fmt.Fprintf(out, "traces: wrote %s\n", traceFlags.Out)
	}
	if testHookServe != nil {
		testHookServe(sess.Addr())
	}
	return sess.Close()
}
