package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/synth"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatalf("run -list: %v", err)
	}
	for _, id := range []string{"fig6", "table2", "fig7", "table3", "fig8a", "fig8b", "fig8c", "ablation"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("-list output missing %s", id)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "table2", "-seed", "11"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "== table2:") {
		t.Errorf("missing table2 report:\n%s", out)
	}
	if strings.Contains(out, "== fig6:") {
		t.Error("unrequested experiment ran")
	}
	if strings.Contains(out, "false") {
		t.Errorf("shape check failed:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig6, fig7"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "== fig6:") || !strings.Contains(buf.String(), "== fig7:") {
		t.Error("both requested experiments should run")
	}
}

func TestRunFromTraceFile(t *testing.T) {
	tr, err := synth.Generate(synth.SmallScale(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-trace", path, "-run", "fig7"}, &buf); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	if !strings.Contains(buf.String(), "== fig7:") {
		t.Error("fig7 missing from trace-file run")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := run([]string{"-scale", "mega"}, &buf); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run([]string{"-trace", "/no/such/file.jsonl"}, &buf); err == nil {
		t.Error("missing trace file accepted")
	}
	if err := run([]string{"-nope"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "table2", "-json"}, &buf); err != nil {
		t.Fatalf("run -json: %v", err)
	}
	var rep struct {
		ID    string     `json:"ID"`
		Rows  [][]string `json:"Rows"`
		Notes []string   `json:"Notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if rep.ID != "table2" || len(rep.Rows) == 0 {
		t.Errorf("unexpected JSON payload: %+v", rep)
	}
	if err := run([]string{"-json", "-plot"}, &buf); err == nil {
		t.Error("-json with -plot accepted")
	}
}

func TestRunOutDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "reports")
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig7", "-out", dir}, &buf); err != nil {
		t.Fatalf("run -out: %v", err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "fig7.txt"))
	if err != nil {
		t.Fatalf("report txt missing: %v", err)
	}
	if !strings.Contains(string(txt), "fig7") {
		t.Error("txt report lacks experiment id")
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig7.json"))
	if err != nil {
		t.Fatalf("report json missing: %v", err)
	}
	var rep struct {
		ID string `json:"ID"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil || rep.ID != "fig7" {
		t.Errorf("json report malformed: %v %+v", err, rep)
	}
}

func TestRunMOverride(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8b", "-m", "8"}, &buf); err != nil {
		t.Fatalf("run -m: %v", err)
	}
	if strings.Contains(buf.String(), "false") {
		t.Errorf("shape check failed at m=8:\n%s", buf.String())
	}
}

func TestRunRespondStats(t *testing.T) {
	// fig8c drives simulations through the engine, so the respond memo
	// and design cache publish counters the -stats printer reads back.
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8c", "-seed", "7", "-stats"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, name := range []string{engine.MetricRespondHits, engine.MetricRespondMisses, engine.MetricCacheHits, engine.MetricCacheMisses} {
		if !strings.Contains(out, "  "+name+" ") {
			t.Errorf("-stats output missing %s:\n%s", name, out)
		}
	}
}

func TestRunNoMemoIdenticalReports(t *testing.T) {
	var with, without bytes.Buffer
	if err := run([]string{"-run", "fig8c", "-seed", "7"}, &with); err != nil {
		t.Fatalf("memo run: %v", err)
	}
	if err := run([]string{"-run", "fig8c", "-seed", "7", "-nomemo"}, &without); err != nil {
		t.Fatalf("nomemo run: %v", err)
	}
	if with.String() != without.String() {
		t.Errorf("memoized and memo-free reports disagree")
	}
}

func TestRunShardStats(t *testing.T) {
	// fig8c runs simulations through the engine; -stats prints the
	// pipeline's stage timings, and the report itself must not change.
	var stats, plain bytes.Buffer
	if err := run([]string{"-run", "fig8c", "-seed", "7", "-stats"}, &stats); err != nil {
		t.Fatalf("run -stats: %v", err)
	}
	out := stats.String()
	for _, name := range []string{engine.MetricStageDesignSeconds, engine.MetricStageRespondSeconds} {
		if !strings.Contains(out, "  "+name+" count ") {
			t.Errorf("-stats output missing %s:\n%s", name, out)
		}
	}
	if err := run([]string{"-run", "fig8c", "-seed", "7"}, &plain); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	// Strip the stats block: every remaining line must match the plain
	// run's report exactly.
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  dyncontract_") || strings.HasSuffix(line, "fig8c:") {
			continue
		}
		kept = append(kept, line)
	}
	if strings.Join(kept, "\n") != plain.String() {
		t.Errorf("-stats report differs from the plain one:\n--- stats ---\n%s\n--- plain ---\n%s",
			strings.Join(kept, "\n"), plain.String())
	}
}

func TestRunShardStatsSequential(t *testing.T) {
	// The engine runs one pipeline: -stats prints no per-shard metric, and
	// -shards is no longer a flag.
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8c", "-seed", "7", "-stats"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out := buf.String(); strings.Contains(out, "dyncontract_engine_shard") {
		t.Errorf("-stats printed per-shard metrics:\n%s", out)
	}
	buf.Reset()
	if err := run([]string{"-run", "fig8c", "-shards", "2"}, &buf); err == nil {
		t.Error("-shards accepted")
	}
}

// TestRunStatsNoUnderflow runs the experiments that drive several engine
// runs through one registry. Registry counters used to follow only the
// newest run's cache, so a later run's smaller count printed as a 2^64
// wrap-around; every printed counter delta must now be a plausible count,
// and fig8c's design cache must show the hits and misses of all its runs.
func TestRunStatsNoUnderflow(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8c,sensitivity,retention", "-seed", "7", "-stats"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	counters := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasSuffix(f[0], "_total") {
			continue
		}
		counters++
		v, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			t.Fatalf("counter line %q: %v", line, err)
		}
		if v >= 1<<53 {
			t.Errorf("counter delta underflowed: %q", line)
		}
	}
	if counters == 0 {
		t.Fatalf("-stats printed no counters:\n%s", out)
	}
	fig8c := out[strings.Index(out, "fig8c:"):strings.Index(out, "sensitivity:")]
	for _, name := range []string{engine.MetricCacheHits, engine.MetricCacheMisses} {
		if strings.Contains(fig8c, "  "+name+" 0\n") {
			t.Errorf("fig8c reports zero %s:\n%s", name, fig8c)
		}
	}
}
