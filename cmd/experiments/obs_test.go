package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
)

// TestRunCacheStats pins parity with cmd/platformsim: -stats reports the
// design-cache metrics per experiment through the shared obs printer,
// under their registry names.
func TestRunCacheStats(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8c", "-seed", "11", "-stats"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig8c:\n  dyncontract_engine_") {
		t.Errorf("-stats output missing per-experiment block:\n%s", out)
	}
	for _, name := range []string{engine.MetricCacheHits, engine.MetricCacheMisses, engine.MetricCacheFlushes, engine.MetricCacheEntries} {
		if !strings.Contains(out, "  "+name+" ") {
			t.Errorf("-stats output missing %s:\n%s", name, out)
		}
	}
}

// TestRunMetricsJSONL checks the -metrics sink flushes one valid JSON
// object per experiment.
func TestRunMetricsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var buf bytes.Buffer
	if err := run([]string{"-run", "fig8c,table2", "-seed", "11", "-metrics", path}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var rec telemetry.JSONLRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", lines, err, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 2 {
		t.Fatalf("metrics file has %d lines, want 2 (one per experiment)", lines)
	}
}
