package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
)

func TestHandlerServesPrometheusText(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(engine.MetricRounds).Add(7)
	reg.Gauge(engine.MetricRoundUtility).Set(12.5)
	reg.Histogram(engine.MetricRoundSeconds, 0, 0.25, 50).Observe(0.01)

	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		engine.MetricRounds + " 7\n",
		engine.MetricRoundUtility + " 12.5\n",
		engine.MetricRoundSeconds + `_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, text)
		}
	}
	assertParseableExposition(t, text)
}

func TestHandlerServesPprofIndex(t *testing.T) {
	srv := httptest.NewServer(Handler(telemetry.NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", resp.Status)
	}
}

// assertParseableExposition walks every line the way a Prometheus scraper
// would: comments pass through, every sample line splits into a name (with
// optional {labels}) and a parseable float value.
func assertParseableExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
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

func TestSessionLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	reg.Counter("dyncontract_test_total").Add(5)

	f := Flags{
		MetricsPath:   filepath.Join(dir, "out.jsonl"),
		MetricsListen: "127.0.0.1:0",
		MemProfile:    filepath.Join(dir, "mem.pprof"),
	}
	sess, err := f.Start(reg)
	if err != nil {
		t.Fatal(err)
	}
	addr := sess.Addr()
	if addr == "" {
		t.Fatal("Addr() empty with -metrics-listen set")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("live /metrics: %v", err)
	}
	resp.Body.Close()
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}

	data, err := os.ReadFile(f.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec telemetry.JSONLRecord
	if err := json.Unmarshal(bytes.TrimSpace(data), &rec); err != nil {
		t.Fatalf("metrics file line is not JSON: %v", err)
	}
	if rec.Counters["dyncontract_test_total"] != 5 {
		t.Errorf("flushed snapshot wrong: %+v", rec.Counters)
	}
	if fi, err := os.Stat(f.MemProfile); err != nil || fi.Size() == 0 {
		t.Errorf("heap profile not written: err=%v", err)
	}
}

func TestSessionInertWhenDisabled(t *testing.T) {
	var f Flags
	if f.Enabled() {
		t.Fatal("zero Flags reports enabled")
	}
	sess, err := f.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Addr() != "" {
		t.Error("inert session has an address")
	}
	if err := sess.Flush(); err != nil {
		t.Error(err)
	}
	if err := sess.Close(); err != nil {
		t.Error(err)
	}
	var nilSess *Session
	if nilSess.Addr() != "" || nilSess.Flush() != nil || nilSess.Close() != nil {
		t.Error("nil Session methods must be no-ops")
	}
}

func TestFlagsRegister(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var f Flags
	f.Register(fs)
	err := fs.Parse([]string{
		"-metrics", "m.jsonl", "-metrics-listen", ":9", "-cpuprofile", "c.pprof", "-memprofile", "m.pprof",
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.MetricsPath != "m.jsonl" || f.MetricsListen != ":9" || f.CPUProfile != "c.pprof" || f.MemProfile != "m.pprof" {
		t.Fatalf("flags not bound: %+v", f)
	}
	if !f.Enabled() {
		t.Error("Enabled() false with every flag set")
	}
}

func TestCacheStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(engine.MetricCacheHits).Add(10)
	reg.Counter(engine.MetricCacheMisses).Add(4)
	reg.Gauge(engine.MetricCacheEntries).Set(3)
	got := CacheStatsFrom(reg.Snapshot())
	want := engine.CacheStats{Hits: 10, Misses: 4, Entries: 3}
	if got != want {
		t.Fatalf("CacheStatsFrom = %+v, want %+v", got, want)
	}

	delta := DeltaCacheStats(engine.CacheStats{Hits: 6, Misses: 1, Entries: 2}, got)
	if (delta != engine.CacheStats{Hits: 4, Misses: 3, Entries: 3}) {
		t.Fatalf("DeltaCacheStats = %+v", delta)
	}

	var buf bytes.Buffer
	FprintCacheStats(&buf, got)
	want2 := "  design cache: 10 hits, 4 misses (3 distinct designs held)\n"
	if buf.String() != want2 {
		t.Fatalf("FprintCacheStats = %q, want %q", buf.String(), want2)
	}
}

func TestRespondStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(engine.MetricRespondHits).Add(12)
	reg.Counter(engine.MetricRespondMisses).Add(3)
	reg.Gauge(engine.MetricRespondEntries).Set(3)
	got := RespondStatsFrom(reg.Snapshot())
	want := engine.RespondStats{Hits: 12, Misses: 3, Entries: 3}
	if got != want {
		t.Fatalf("RespondStatsFrom = %+v, want %+v", got, want)
	}

	delta := DeltaRespondStats(engine.RespondStats{Hits: 5, Misses: 1, Entries: 2}, got)
	if (delta != engine.RespondStats{Hits: 7, Misses: 2, Entries: 3}) {
		t.Fatalf("DeltaRespondStats = %+v", delta)
	}

	var buf bytes.Buffer
	FprintRespondStats(&buf, got)
	want2 := "  respond memo: 12 hits, 3 misses (3 responses held)\n"
	if buf.String() != want2 {
		t.Fatalf("FprintRespondStats = %q, want %q", buf.String(), want2)
	}
}

func TestShardStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge(engine.MetricShards).Set(4)
	d := reg.Histogram(engine.MetricShardDesignSeconds, 0, 0.25, 50)
	d.Observe(0.01)
	d.Observe(0.03)
	r := reg.Histogram(engine.MetricShardRespondSeconds, 0, 0.25, 50)
	r.Observe(0.02)
	got := ShardStatsFrom(reg.Snapshot())
	want := ShardStats{Shards: 4, DesignRuns: 2, RespondRuns: 1, DesignSeconds: 0.04, RespondSeconds: 0.02}
	if got != want {
		t.Fatalf("ShardStatsFrom = %+v, want %+v", got, want)
	}

	delta := DeltaShardStats(ShardStats{Shards: 4, DesignRuns: 1, RespondRuns: 1, DesignSeconds: 0.01, RespondSeconds: 0.02}, got)
	if (delta != ShardStats{Shards: 4, DesignRuns: 1, RespondRuns: 0, DesignSeconds: 0.03, RespondSeconds: 0}) {
		t.Fatalf("DeltaShardStats = %+v", delta)
	}

	var buf bytes.Buffer
	FprintShardStats(&buf, got)
	want2 := "  shards: 4\n" +
		"  shard design:       2 runs, mean 0.020000s\n" +
		"  shard respond:      1 runs, mean 0.020000s\n"
	if buf.String() != want2 {
		t.Fatalf("FprintShardStats = %q, want %q", buf.String(), want2)
	}

	// A one-shard engine (Config.Shards = 0) reports like any other: three
	// warm rounds design three times and respond once.
	buf.Reset()
	FprintShardStats(&buf, ShardStats{Shards: 1, DesignRuns: 3, RespondRuns: 1, DesignSeconds: 0.03, RespondSeconds: 0.01})
	want3 := "  shards: 1\n" +
		"  shard design:       3 runs, mean 0.010000s\n" +
		"  shard respond:      1 runs, mean 0.010000s\n"
	if buf.String() != want3 {
		t.Fatalf("FprintShardStats(one shard) = %q, want %q", buf.String(), want3)
	}
}

func TestDriftStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(engine.MetricDriftTouchedAgents).Add(12)
	reg.Counter(engine.MetricDriftShardsRebuilt).Add(3)
	reg.Counter(engine.MetricDriftShardsSkipped).Add(13)
	reg.Counter(engine.MetricDriftJoins).Add(5)
	reg.Counter(engine.MetricDriftLeaves).Add(4)
	reg.Counter(engine.MetricDriftCompactions).Add(1)
	h := reg.Histogram(engine.MetricDriftRebuildSeconds, 0, 0.25, 50)
	h.Observe(0.01)
	h.Observe(0.03)
	got := DriftStatsFrom(reg.Snapshot())
	want := DriftStats{TouchedAgents: 12, JoinedAgents: 5, LeftAgents: 4, Compactions: 1, ShardsRebuilt: 3, ShardsSkipped: 13, RebuildRuns: 2, RebuildSeconds: 0.04}
	if got != want {
		t.Fatalf("DriftStatsFrom = %+v, want %+v", got, want)
	}

	delta := DeltaDriftStats(DriftStats{TouchedAgents: 2, JoinedAgents: 1, LeftAgents: 1, ShardsRebuilt: 1, ShardsSkipped: 3, RebuildRuns: 1, RebuildSeconds: 0.01}, got)
	if (delta != DriftStats{TouchedAgents: 10, JoinedAgents: 4, LeftAgents: 3, Compactions: 1, ShardsRebuilt: 2, ShardsSkipped: 10, RebuildRuns: 1, RebuildSeconds: 0.03}) {
		t.Fatalf("DeltaDriftStats = %+v", delta)
	}

	var buf bytes.Buffer
	FprintDriftStats(&buf, got)
	want2 := "  drift touched: 12 agents across 2 sparse refreshes\n" +
		"  drift churn:   5 joined, 4 left, 1 compactions\n" +
		"  drift shards:  3 rebuilt, 13 skipped\n" +
		"  drift refresh: 0.040000s total, mean 0.020000s\n"
	if buf.String() != want2 {
		t.Fatalf("FprintDriftStats = %q, want %q", buf.String(), want2)
	}

	buf.Reset()
	FprintDriftStats(&buf, DriftStats{})
	if want3 := "  drift: no scoped drift (Touch/TouchJoin/TouchLeave) observed\n"; buf.String() != want3 {
		t.Fatalf("FprintDriftStats(zero) = %q, want %q", buf.String(), want3)
	}
}

// TestHTTPStatsHelpers drives requests through telemetry.InstrumentHandler
// and checks HTTPStatsFrom recovers the route's counts and latency
// aggregates, and FprintHTTPStats renders one line per route.
func TestHTTPStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	okHandler := telemetry.InstrumentHandler(reg, "design", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	busyHandler := telemetry.InstrumentHandler(reg, "rounds", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	for i := 0; i < 5; i++ {
		okHandler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/design", nil))
	}
	busyHandler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/rounds", nil))

	stats := HTTPStatsFrom(reg.Snapshot())
	if len(stats) != 2 {
		t.Fatalf("HTTPStatsFrom found %d routes, want 2: %+v", len(stats), stats)
	}
	if stats[0].Route != "design" || stats[1].Route != "rounds" {
		t.Fatalf("routes not sorted: %+v", stats)
	}
	if stats[0].Requests != 5 || stats[0].Status2xx != 5 || stats[0].Rejected != 0 {
		t.Errorf("design stats = %+v", stats[0])
	}
	if stats[1].Requests != 1 || stats[1].Rejected != 1 || stats[1].Status4xx != 1 {
		t.Errorf("rounds stats = %+v", stats[1])
	}
	if stats[0].P95Seconds < stats[0].P50Seconds {
		t.Errorf("p95 %v < p50 %v", stats[0].P95Seconds, stats[0].P50Seconds)
	}

	var buf bytes.Buffer
	FprintHTTPStats(&buf, stats)
	out := buf.String()
	if !strings.Contains(out, "http design") || !strings.Contains(out, "http rounds") {
		t.Errorf("FprintHTTPStats output missing routes:\n%s", out)
	}
	if !strings.Contains(out, "1 rejected") {
		t.Errorf("FprintHTTPStats output missing rejected count:\n%s", out)
	}

	buf.Reset()
	FprintHTTPStats(&buf, nil)
	if !strings.Contains(buf.String(), "no instrumented routes") {
		t.Errorf("empty FprintHTTPStats = %q", buf.String())
	}
}
