// Command experiments regenerates the paper's tables and figures on a
// synthetic trace (or a trace file produced by tracegen).
//
// Usage:
//
//	experiments [-run id[,id...]] [-scale small|paper] [-seed n] [-trace file.jsonl]
//	            [-cachestats] [-respondstats]
//	            [-shards n] [-shardstats] [-driftstats]
//	            [-metrics out.jsonl] [-metrics-listen addr]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-spans] [-trace-sample p] [-trace-out file]
//	experiments -list
//
// -spans records one execution span per experiment run (-trace already
// names the review-trace input file, so the enable flag differs from the
// other CLIs); -trace-out writes the retained spans on exit (.json =
// Chrome trace_event format for Perfetto).
//
// Each experiment prints an aligned text table with shape-check notes; see
// EXPERIMENTS.md for the mapping to the paper's figures. The
// observability flags attach a telemetry registry to the
// simulation-driven experiments: -metrics appends one JSONL snapshot per
// experiment, -metrics-listen serves /metrics (Prometheus text) plus
// net/http/pprof, and -cachestats / -respondstats print the design-cache
// and respond-memo counters each experiment accumulated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dyncontract/internal/engine"
	"dyncontract/internal/experiments"
	"dyncontract/internal/obs"
	"dyncontract/internal/synth"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runIDs     = fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
		scale      = fs.String("scale", "small", "trace scale: small or paper")
		seed       = fs.Int64("seed", 42, "generation seed")
		traceFile  = fs.String("trace", "", "read the trace from this JSONL file instead of generating")
		list       = fs.Bool("list", false, "list available experiments and exit")
		m          = fs.Int("m", 0, "override the number of effort intervals (0 = default)")
		plot       = fs.Bool("plot", false, "render ASCII charts below figure-style reports")
		asJSON     = fs.Bool("json", false, "emit reports as JSON instead of text tables")
		outDir     = fs.String("out", "", "also write one report file per experiment into this directory")
		noCache    = fs.Bool("nocache", false, "disable the engine's cross-round design cache in simulation experiments")
		cacheStats = fs.Bool("cachestats", false, "report design-cache hits/misses per experiment")
		noMemo     = fs.Bool("nomemo", false, "disable the engine's cross-round best-response memo in simulation experiments")
		memoStats  = fs.Bool("respondstats", false, "report respond-memo hits/misses per experiment")
		shards     = fs.Int("shards", 0, "shard count for the engine's round pipeline; 0 = one shard (reports are identical)")
		shardStats = fs.Bool("shardstats", false, "report per-shard stage timings per experiment")
		driftStats = fs.Bool("driftstats", false, "report sparse-drift scope counters per experiment")
		obsFlags   obs.Flags
		traceFlags obs.TraceFlags
	)
	obsFlags.Register(fs)
	traceFlags.RegisterNamed(fs, "spans") // -trace is the input trace file
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The registry outlives all experiments; -cachestats, -respondstats,
	// or -shardstats alone is enough to want one (the counters live there,
	// read back per run).
	var reg *telemetry.Registry
	if obsFlags.Enabled() || *cacheStats || *memoStats || *shardStats || *driftStats {
		reg = telemetry.NewRegistry()
	}
	sess, err := obsFlags.Start(reg)
	if err != nil {
		return err
	}
	defer sess.Close()
	if addr := sess.Addr(); addr != "" && !*asJSON {
		fmt.Fprintf(out, "metrics: serving http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Fprintf(out, "%-10s %s\n", e.ID, e.Abouts)
		}
		return nil
	}

	if *asJSON && *plot {
		return fmt.Errorf("-json and -plot are mutually exclusive")
	}
	var pipe *experiments.Pipeline
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return fmt.Errorf("open trace: %w", err)
		}
		defer f.Close()
		tr, err := trace.ReadJSONL(f)
		if err != nil {
			return fmt.Errorf("read trace: %w", err)
		}
		pipe, err = experiments.BuildPipelineFromTrace(tr, *seed)
		if err != nil {
			return err
		}
	} else {
		var cfg synth.Config
		switch *scale {
		case "small":
			cfg = synth.SmallScale(*seed)
		case "paper":
			cfg = synth.PaperScale(*seed)
		default:
			return fmt.Errorf("unknown scale %q (want small or paper)", *scale)
		}
		if !*asJSON {
			fmt.Fprintf(out, "generating %s-scale trace (seed %d)...\n", *scale, *seed)
		}
		pipe, err = experiments.BuildPipeline(cfg)
		if err != nil {
			return err
		}
	}
	if !*asJSON {
		fmt.Fprintf(out, "trace: %d reviews, %d workers, %d products; detected %d communities\n\n",
			len(pipe.Trace.Reviews), len(pipe.Trace.Workers), pipe.Trace.NumProducts(), len(pipe.Communities))
	}

	params := experiments.DefaultParams()
	if *m > 0 {
		params.M = *m
	}
	params.NoDesignCache = *noCache
	params.NoRespondMemo = *noMemo
	params.Shards = *shards
	params.Metrics = reg

	ids := strings.Split(*runIDs, ",")
	if *runIDs == "all" {
		ids = nil
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}
	tracer, recorder := traceFlags.Build()
	var prevCache engine.CacheStats
	var prevMemo engine.RespondStats
	var prevShard obs.ShardStats
	var prevDrift obs.DriftStats
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		// One span per experiment. The runners drive their engines on
		// their own contexts, so the span bounds the experiment without
		// engine-level children — run platformsim or contractd with -trace
		// for the full round/stage/shard nesting.
		span := tracer.Root("experiment." + id)
		rep, err := runner(pipe, params)
		span.End()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		// One JSONL snapshot per experiment (the CLI's flush interval),
		// and the same -cachestats line platformsim prints — here as the
		// delta this experiment added to the shared registry's counters.
		if err := sess.Flush(); err != nil {
			return err
		}
		if (*cacheStats || *memoStats || *shardStats || *driftStats) && !*asJSON {
			snap := reg.Snapshot()
			fmt.Fprintf(out, "%s:\n", id)
			if *cacheStats {
				cur := obs.CacheStatsFrom(snap)
				obs.FprintCacheStats(out, obs.DeltaCacheStats(prevCache, cur))
				prevCache = cur
			}
			if *memoStats {
				cur := obs.RespondStatsFrom(snap)
				obs.FprintRespondStats(out, obs.DeltaRespondStats(prevMemo, cur))
				prevMemo = cur
			}
			if *shardStats {
				// Experiments share one registry; the delta isolates this run.
				cur := obs.ShardStatsFrom(snap)
				obs.FprintShardStats(out, obs.DeltaShardStats(prevShard, cur))
				prevShard = cur
			}
			if *driftStats {
				cur := obs.DriftStatsFrom(snap)
				obs.FprintDriftStats(out, obs.DeltaDriftStats(prevDrift, cur))
				prevDrift = cur
			}
		}
		if *outDir != "" {
			if err := writeReportFiles(*outDir, rep); err != nil {
				return err
			}
		}
		if *asJSON {
			enc := json.NewEncoder(out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				return fmt.Errorf("encode %s: %w", id, err)
			}
			continue
		}
		fmt.Fprintln(out, rep.Render(*plot))
	}
	if err := traceFlags.Export(recorder); err != nil {
		return err
	}
	if traceFlags.Out != "" && !*asJSON {
		fmt.Fprintf(out, "traces: wrote %s\n", traceFlags.Out)
	}
	return nil
}

// writeReportFiles persists one experiment's report as <id>.txt and
// <id>.json inside dir, creating it if needed.
func writeReportFiles(dir string, rep *experiments.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", dir, err)
	}
	txtPath := filepath.Join(dir, rep.ID+".txt")
	if err := os.WriteFile(txtPath, []byte(rep.Render(true)), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", txtPath, err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", rep.ID, err)
	}
	jsonPath := filepath.Join(dir, rep.ID+".json")
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", jsonPath, err)
	}
	return nil
}
