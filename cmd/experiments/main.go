// Command experiments regenerates the paper's tables and figures on a
// synthetic trace (or a trace file produced by tracegen).
//
// Usage:
//
//	experiments [-run id[,id...]] [-scale small|paper] [-seed n] [-trace file.jsonl]
//	            [-stats]
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
// net/http/pprof, and -stats prints every engine and solver metric each
// experiment added to the registry (obs.FprintStats).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

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
		noMemo     = fs.Bool("nomemo", false, "disable the engine's cross-round best-response memo in simulation experiments")
		stats      = fs.Bool("stats", false, "print the engine and solver metrics each experiment added")
		obsFlags   obs.Flags
		traceFlags obs.TraceFlags
	)
	obsFlags.Register(fs)
	traceFlags.RegisterNamed(fs, "spans") // -trace is the input trace file
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The registry outlives all experiments; -stats alone is enough to
	// want one (the counters live there, read back per experiment).
	var reg *telemetry.Registry
	if obsFlags.Enabled() || *stats {
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
	params.Metrics = reg

	ids := strings.Split(*runIDs, ",")
	if *runIDs == "all" {
		ids = nil
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}
	tracer, recorder := traceFlags.Build()
	var prev telemetry.Snapshot
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, ok := experiments.Lookup(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		// One span per experiment. The runners drive their engines on
		// their own contexts, so the span bounds the experiment without
		// engine-level children — run platformsim or contractd with -trace
		// for the full round/stage nesting.
		span := tracer.Root("experiment." + id)
		rep, err := runner(pipe, params)
		span.End()
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		// One JSONL snapshot per experiment (the CLI's flush interval),
		// and the -stats block platformsim prints — here as the delta
		// this experiment added to the shared registry.
		if err := sess.Flush(); err != nil {
			return err
		}
		if *stats && !*asJSON {
			cur := reg.Snapshot()
			fmt.Fprintf(out, "%s:\n", id)
			obs.FprintStats(out, prev, cur, obs.SimPrefixes...)
			prev = cur
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
