package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
)

// TestRunMetricsJSONL pins the acceptance criterion "-metrics out.jsonl
// emits one valid JSON object per line": every line must round-trip
// through encoding/json, and the run flushes once per simulated round.
func TestRunMetricsJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	var buf bytes.Buffer
	const rounds = 3
	err := run([]string{
		"-policies", "dynamic", "-rounds", strconv.Itoa(rounds),
		"-perclass", "25", "-metrics", path,
	}, &buf)
	if err != nil {
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
			t.Fatalf("line %d is not a valid JSON object: %v\n%s", lines, err, sc.Text())
		}
		if rec.TS == "" {
			t.Errorf("line %d has no timestamp", lines)
		}
		if got := rec.Counters[engine.MetricRounds]; got != uint64(lines) {
			t.Errorf("line %d: %s = %d, want %d (one flush per round)",
				lines, engine.MetricRounds, got, lines)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != rounds {
		t.Fatalf("metrics file has %d lines, want %d (one per round)", lines, rounds)
	}
}

// TestRunMetricsListen pins the acceptance criterion "platformsim
// -metrics-listen :0 serves parseable Prometheus text at /metrics": the
// test hook scrapes the live endpoint after the simulation populated the
// registry, and every sample line must parse.
func TestRunMetricsListen(t *testing.T) {
	var scraped string
	testHookServe = func(addr string) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /metrics: %s", resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("read body: %v", err)
			return
		}
		scraped = string(body)
	}
	defer func() { testHookServe = nil }()

	var buf bytes.Buffer
	err := run([]string{
		"-policies", "dynamic", "-rounds", "2", "-perclass", "25",
		"-metrics-listen", "127.0.0.1:0", "-stats",
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(buf.String(), "metrics: serving http://") {
		t.Error("listen address not announced")
	}
	if scraped == "" {
		t.Fatal("test hook never scraped the endpoint")
	}
	for _, want := range []string{
		"# TYPE " + engine.MetricRounds + " counter",
		engine.MetricRounds + " 2\n",
		engine.MetricRoundSeconds + `_bucket{le="+Inf"} 2`,
		engine.MetricCacheHits,
	} {
		if !strings.Contains(scraped, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, scraped)
		}
	}
	// Line-by-line parse, the way a Prometheus scraper consumes it.
	for _, line := range strings.Split(strings.TrimRight(scraped, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Errorf("unparseable sample line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("sample %q: bad value: %v", line, err)
		}
	}
}

// TestRunCacheStats pins the shared -stats printer: each policy's block
// carries the design-cache metrics under their registry names, and the
// fixed-payment policy, which never designs, reads zero hits and misses.
func TestRunCacheStats(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-policies", "dynamic,fixed", "-rounds", "2", "-perclass", "25", "-stats"}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := buf.String()
	for _, name := range []string{engine.MetricCacheHits, engine.MetricCacheMisses, engine.MetricCacheFlushes, engine.MetricCacheEntries} {
		if !strings.Contains(out, "  "+name+" ") {
			t.Errorf("-stats output missing %s:\n%s", name, out)
		}
	}
	fixed := out[strings.Index(out, "policy fixed-payment"):]
	for _, name := range []string{engine.MetricCacheHits, engine.MetricCacheMisses} {
		if !strings.Contains(fixed, "  "+name+" 0\n") {
			t.Errorf("fixed-payment block reports a nonzero %s:\n%s", name, fixed)
		}
	}
}

// TestRunProfiles checks the -cpuprofile/-memprofile flags produce
// non-empty pprof files.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	err := run([]string{
		"-policies", "fixed", "-rounds", "1", "-perclass", "20",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written (err=%v)", p, err)
		}
	}
}
