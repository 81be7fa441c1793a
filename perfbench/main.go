// Command perfbench is the repository's benchmark: it drives contractd's
// server in-process, one closed-loop client per session, on three
// workloads, checks every answer against a bare engine fed the same
// inputs, and prints end-to-end metrics (or, traced, per-layer ones) as
// one JSON line.
//
//	bash perfbench/run.sh --workload paper-serve --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how each layer metric
// maps onto the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workRoot holds every file a run writes, inside the checkout.
const workRoot = ".bench_build"

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	workload := fs.String("workload", "", "paper-serve, archetype-warm or restart")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "time to measure, in whole sessions or restart ops")
	traced := fs.Int("trace", 0, "1: also run a traced phase and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(errOut, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	diagnostics(out, *workload, *seed)
	b := &bench{dir: dir, seed: *seed, budget: time.Duration(*seconds) * time.Second, shards: runtime.NumCPU(), last: time.Now()}
	if *traced == 1 {
		b.rec = newRecorder()
	}
	r, lr, err := w(b)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	report(out, r)
	fmt.Fprintf(out, "# stages: %s\n", strings.Join(b.stages, ", "))
	res := result{Correct: r.failed() == 0, Attempted: r.attempted(), Failed: r.failed()}
	if b.rec == nil {
		bounded, _ := endToEnd(r).splitGated()
		res.Metrics = bounded.json()
	} else {
		printLayerTable(out, b.rec.layerTable())
		fmt.Fprintln(out, "# tracing overhead (traced minus untraced):")
		e2e, traced := endToEnd(r), endToEnd(lr.traced)
		for i, m := range e2e {
			if m.name == "heap_live_mb" {
				// Traced serve sessions are shorter, so their ledgers are too.
				continue
			}
			if d := traced[i].value - m.value; !math.IsNaN(d) {
				fmt.Fprintf(out, "#   %-16s %+.4f %s\n", m.name, d, m.unit)
			} else {
				fmt.Fprintf(out, "#   %-16s not measured in the traced phase\n", m.name)
			}
		}
		res.Correct = res.Correct && lr.traced.failed() == 0
		res.Attempted += lr.traced.attempted()
		res.Failed += lr.traced.failed()
		_, unbounded := e2e.splitGated()
		res.Metrics = append(lr.metrics(r), unbounded...).json()
		path := filepath.Join(workRoot, fmt.Sprintf("spans-%s-%d.jsonl", *workload, *seed))
		if err := b.rec.writeJSONL(path); err != nil {
			fmt.Fprintln(errOut, "perfbench: spans:", err)
			return 1
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(b.rec.spans), path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run's shared state.
type bench struct {
	dir    string
	seed   int64
	budget time.Duration
	shards int
	rec    *recorder // nil when untraced

	// Wall time of each stage of the run, for the report.
	stages []string
	last   time.Time
}

// stage closes the run's current stage under name.
func (b *bench) stage(name string) {
	now := time.Now()
	b.stages = append(b.stages, fmt.Sprintf("%s %.1fs", name, now.Sub(b.last).Seconds()))
	b.last = now
}

// path names a fresh subdirectory of the run's work directory.
func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// workloadFunc runs one workload: the untraced phases into the first
// results, and with b.rec set, a traced phase into the layer report.
type workloadFunc func(b *bench) (*results, *layerReport, error)

var workloads = map[string]workloadFunc{
	"paper-serve":    runPaperServe,
	"archetype-warm": runArchetypeWarm,
	"restart":        runRestart,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int // samples behind the value
}

type metricList []metric

func (ms metricList) json() map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// gated names the end-to-end metrics BENCHMARK.json bounds: those whose
// spread across runs stays under a third of their bound on every workload
// on a host that steals and contends as this benchmark's did (README.md
// gives the figures). Every run prints all ten, but the JSON of an
// untraced run carries only these; traced runs report the others with the
// per-layer metrics, unbounded.
var gated = map[string]bool{"setup_s": true, "design_p50_ms": true, "heap_live_mb": true}

// splitGated separates the gated end-to-end metrics from the others.
func (ms metricList) splitGated() (bounded, others metricList) {
	for _, m := range ms {
		if gated[m.name] {
			bounded = append(bounded, m)
		} else {
			others = append(others, m)
		}
	}
	return bounded, others
}

// endToEnd derives the ten end-to-end metrics from a run's results.
func endToEnd(r *results) metricList {
	ms := metricList{{name: "setup_s", unit: "s", value: median(r.setup), n: len(r.setup)}}
	for _, kind := range []string{"round", "drift", "design"} {
		l := summarize(r.ms[kind])
		ms = append(ms,
			metric{name: kind + "_p50_ms", unit: "ms", value: l.p50, n: l.n},
			metric{name: kind + "_tail_ms", unit: "ms", value: l.tail, n: l.n})
	}
	ms = append(ms,
		metric{name: "restart_p50_ms", unit: "ms", value: median(r.restart), n: len(r.restart)},
		metric{name: "cpu_ms_per_step", unit: "ms", value: r.cpuMs / float64(r.steps), n: r.steps},
		metric{name: "heap_live_mb", unit: "MB", value: median(r.heap), n: len(r.heap)})
	return ms
}

// report prints every end-to-end metric with its unit and sample count,
// the tail percentiles, the per-kind op tallies and the run's steal.
func report(w io.Writer, r *results) {
	for _, m := range endToEnd(r) {
		fmt.Fprintf(w, "# %-16s %12.4f %-3s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, kind := range []string{"round", "drift", "design"} {
		fmt.Fprintf(w, "# %-6s %s\n", kind, summarize(r.ms[kind]))
	}
	for _, k := range opKinds {
		t := r.tallies[k]
		fmt.Fprintf(w, "# ops %-8s attempted %6d succeeded %6d failed %d\n", k, t.attempted, t.attempted-t.failed, t.failed)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "# FAIL %s\n", e)
	}
	steal := nan
	if r.ticks > 0 {
		steal = float64(r.stolen) / float64(r.ticks)
	}
	fmt.Fprintf(w, "# steal %.4f of CPU time over the timed phases\n", steal)
}
