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
	"slices"
	"sort"
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

// TestFprintStats pins the one stats printer: a counter prints its delta,
// a gauge its current value, a histogram the count, mean and quantiles of
// its bin-count delta; only names under the given prefixes print, sorted;
// and a delta over nothing prints zeros.
func TestFprintStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	hits := reg.Counter("dyncontract_engine_cache_hits_total")
	entries := reg.Gauge("dyncontract_engine_cache_entries")
	hist := reg.Histogram("dyncontract_engine_round_seconds", 0, 1, 10)
	other := reg.Counter("dyncontract_http_design_requests_total")
	hits.Add(6)
	entries.Set(2)
	hist.Observe(0.05)
	hist.Observe(0.05)
	other.Add(1)
	prev := reg.Snapshot()
	hits.Add(4)
	entries.Set(3)
	for i := 0; i < 4; i++ {
		hist.Observe(0.55)
	}
	other.Add(1)
	cur := reg.Snapshot()

	for _, tc := range []struct {
		name      string
		prev, cur telemetry.Snapshot
		prefixes  []string
		want      string
	}{
		{"counter delta", prev, cur, []string{"dyncontract_engine_cache_hits"},
			"  dyncontract_engine_cache_hits_total 4\n"},
		{"gauge current", prev, cur, []string{"dyncontract_engine_cache_entries"},
			"  dyncontract_engine_cache_entries 3\n"},
		{"histogram delta", prev, cur, []string{"dyncontract_engine_round_"},
			"  dyncontract_engine_round_seconds count 4 mean 0.55 p50 <=0.6 p95 <=0.6 p99 <=0.6\n"},
		{"zero prev prints totals", telemetry.Snapshot{}, cur, []string{"dyncontract_engine_cache_hits", "dyncontract_http_"},
			"  dyncontract_engine_cache_hits_total 10\n  dyncontract_http_design_requests_total 2\n"},
		{"prefixes filter and sort", prev, cur, []string{"dyncontract_http_", "dyncontract_engine_cache_"},
			"  dyncontract_engine_cache_entries 3\n  dyncontract_engine_cache_hits_total 4\n  dyncontract_http_design_requests_total 1\n"},
		{"empty delta", cur, cur, []string{"dyncontract_engine_"},
			"  dyncontract_engine_cache_entries 3\n  dyncontract_engine_cache_hits_total 0\n" +
				"  dyncontract_engine_round_seconds count 0 mean 0 p50 0 p95 0 p99 0\n"},
		{"no match", prev, cur, []string{"dyncontract_solver_"}, ""},
	} {
		var buf bytes.Buffer
		FprintStats(&buf, tc.prev, tc.cur, tc.prefixes...)
		if buf.String() != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, buf.String(), tc.want)
		}
	}
}

// TestFprintStatsQuantileBounds pins what a histogram line claims about
// its quantiles: an observation far below one bin's width keeps its exact
// mean but prints its quantiles as "<=" the first bin's upper edge, not
// as an interpolated value; a quantile between bins prints the edge of
// the bin holding its rank; and one in the top bin, which also holds
// every observation at or above the range, prints ">=" its lower edge.
func TestFprintStatsQuantileBounds(t *testing.T) {
	reg := telemetry.NewRegistry()
	sub := reg.Histogram("dyncontract_engine_stage_respond_seconds", 0, 0.25, 50)
	sub.Observe(0.000335)
	mixed := reg.Histogram("dyncontract_engine_stage_design_seconds", 0, 0.25, 50)
	for i := 0; i < 90; i++ {
		mixed.Observe(0.001)
	}
	for i := 0; i < 8; i++ {
		mixed.Observe(0.0125)
	}
	mixed.Observe(0.2475)
	mixed.Observe(3)

	var buf bytes.Buffer
	FprintStats(&buf, telemetry.Snapshot{}, reg.Snapshot(), "dyncontract_engine_stage_")
	want := "  dyncontract_engine_stage_design_seconds count 100 mean 0.034375 p50 <=0.005 p95 <=0.015 p99 >=0.245\n" +
		"  dyncontract_engine_stage_respond_seconds count 1 mean 0.000335 p50 <=0.005 p95 <=0.005 p99 <=0.005\n"
	if buf.String() != want {
		t.Fatalf("quantile bounds:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestCacheStatsHelpers pins the design cache's view through the one
// printer: hits and misses print the round's increase, entries the
// current size, and a flush counter absent from prev counts from zero.
func TestCacheStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(engine.MetricCacheHits).Add(6)
	reg.Counter(engine.MetricCacheMisses).Add(1)
	reg.Gauge(engine.MetricCacheEntries).Set(2)
	reg.Counter(engine.MetricRespondHits).Add(9)
	prev := reg.Snapshot()
	reg.Counter(engine.MetricCacheHits).Add(4)
	reg.Counter(engine.MetricCacheMisses).Add(3)
	reg.Counter(engine.MetricCacheFlushes).Add(1)
	reg.Gauge(engine.MetricCacheEntries).Set(3)
	cur := reg.Snapshot()

	var buf bytes.Buffer
	FprintStats(&buf, prev, cur, "dyncontract_engine_cache_")
	want := "  " + engine.MetricCacheEntries + " 3\n" +
		"  " + engine.MetricCacheFlushes + " 1\n" +
		"  " + engine.MetricCacheHits + " 4\n" +
		"  " + engine.MetricCacheMisses + " 3\n"
	if buf.String() != want {
		t.Fatalf("cache delta:\n got %q\nwant %q", buf.String(), want)
	}

	buf.Reset()
	FprintStats(&buf, telemetry.Snapshot{}, cur, engine.MetricCacheHits, engine.MetricCacheMisses)
	if want := "  " + engine.MetricCacheHits + " 10\n  " + engine.MetricCacheMisses + " 4\n"; buf.String() != want {
		t.Fatalf("cache totals:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestRespondStatsHelpers is TestCacheStatsHelpers for the respond memo,
// and checks the simulation CLIs' SimPrefixes select the memo's metrics.
func TestRespondStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(engine.MetricRespondHits).Add(5)
	reg.Counter(engine.MetricRespondMisses).Add(1)
	reg.Gauge(engine.MetricRespondEntries).Set(2)
	prev := reg.Snapshot()
	reg.Counter(engine.MetricRespondHits).Add(7)
	reg.Counter(engine.MetricRespondMisses).Add(2)
	reg.Gauge(engine.MetricRespondEntries).Set(3)
	cur := reg.Snapshot()

	var buf bytes.Buffer
	FprintStats(&buf, prev, cur, SimPrefixes...)
	want := "  " + engine.MetricRespondEntries + " 3\n" +
		"  " + engine.MetricRespondHits + " 7\n" +
		"  " + engine.MetricRespondMisses + " 2\n"
	if buf.String() != want {
		t.Fatalf("respond delta:\n got %q\nwant %q", buf.String(), want)
	}

	buf.Reset()
	FprintStats(&buf, telemetry.Snapshot{}, cur, "dyncontract_engine_respond_")
	want = "  " + engine.MetricRespondEntries + " 3\n" +
		"  " + engine.MetricRespondHits + " 12\n" +
		"  " + engine.MetricRespondMisses + " 3\n"
	if buf.String() != want {
		t.Fatalf("respond totals:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestShardStatsHelpers pins the stage histograms that carry the round
// pipeline's design and respond timings: each prints the runs and mean of
// the round's samples only.
func TestShardStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	d := reg.Histogram(engine.MetricStageDesignSeconds, 0, 0.25, 50)
	r := reg.Histogram(engine.MetricStageRespondSeconds, 0, 0.25, 50)
	d.Observe(0.0125)
	r.Observe(0.0225)
	prev := reg.Snapshot()
	d.Observe(0.0325)
	d.Observe(0.0325)
	cur := reg.Snapshot()

	var buf bytes.Buffer
	FprintStats(&buf, prev, cur, "dyncontract_engine_stage_")
	want := "  " + engine.MetricStageDesignSeconds + " count 2 mean 0.0325 p50 <=0.035 p95 <=0.035 p99 <=0.035\n" +
		"  " + engine.MetricStageRespondSeconds + " count 0 mean 0 p50 0 p95 0 p99 0\n"
	if buf.String() != want {
		t.Fatalf("stage delta:\n got %q\nwant %q", buf.String(), want)
	}

	// Three warm rounds: each observes the design and the respond stage
	// once, the warm ones near zero.
	one := telemetry.NewRegistry()
	for _, sec := range []float64{0.0125, 0.0001, 0.0001} {
		one.Histogram(engine.MetricStageDesignSeconds, 0, 0.25, 50).Observe(sec)
		one.Histogram(engine.MetricStageRespondSeconds, 0, 0.25, 50).Observe(sec)
	}
	buf.Reset()
	FprintStats(&buf, telemetry.Snapshot{}, one.Snapshot(), "dyncontract_engine_stage_")
	want = "  " + engine.MetricStageDesignSeconds + " count 3 mean 0.00423333 p50 <=0.005 p95 <=0.015 p99 <=0.015\n" +
		"  " + engine.MetricStageRespondSeconds + " count 3 mean 0.00423333 p50 <=0.005 p95 <=0.015 p99 <=0.015\n"
	if buf.String() != want {
		t.Fatalf("three rounds:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestDriftStatsHelpers pins the scoped-drift counters and refresh
// histogram, and that a run with no scoped drift prints no drift lines.
func TestDriftStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	touched := reg.Counter(engine.MetricDriftTouchedAgents)
	rebuilt := reg.Counter(engine.MetricDriftShardsRebuilt)
	joins := reg.Counter(engine.MetricDriftJoins)
	leaves := reg.Counter(engine.MetricDriftLeaves)
	h := reg.Histogram(engine.MetricDriftRebuildSeconds, 0, 0.25, 50)
	touched.Add(2)
	rebuilt.Add(1)
	joins.Add(1)
	leaves.Add(1)
	h.Observe(0.0125)
	prev := reg.Snapshot()
	touched.Add(10)
	rebuilt.Add(2)
	joins.Add(4)
	leaves.Add(3)
	h.Observe(0.0325)
	cur := reg.Snapshot()

	var buf bytes.Buffer
	FprintStats(&buf, prev, cur, "dyncontract_engine_drift_")
	want := "  " + engine.MetricDriftJoins + " 4\n" +
		"  " + engine.MetricDriftLeaves + " 3\n" +
		"  " + engine.MetricDriftRebuildSeconds + " count 1 mean 0.0325 p50 <=0.035 p95 <=0.035 p99 <=0.035\n" +
		"  " + engine.MetricDriftShardsRebuilt + " 2\n" +
		"  " + engine.MetricDriftTouchedAgents + " 10\n"
	if buf.String() != want {
		t.Fatalf("drift delta:\n got %q\nwant %q", buf.String(), want)
	}

	quiet := telemetry.NewRegistry()
	quiet.Counter(engine.MetricRounds).Add(3)
	buf.Reset()
	FprintStats(&buf, telemetry.Snapshot{}, quiet.Snapshot(), "dyncontract_engine_drift_")
	if buf.String() != "" {
		t.Fatalf("no scoped drift printed %q", buf.String())
	}
}

// TestHTTPStatsHelpers drives requests through telemetry.InstrumentHandler
// and checks the printer, under the HTTP prefix contractd's drain summary
// uses, shows each route's counts and latency samples, sorted by route.
func TestHTTPStatsHelpers(t *testing.T) {
	reg := telemetry.NewRegistry()
	okHandler := telemetry.InstrumentHandler(reg, "design", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	busyHandler := telemetry.InstrumentHandler(reg, "rounds", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	reg.Counter(engine.MetricRounds).Add(1)
	for i := 0; i < 5; i++ {
		okHandler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/design", nil))
	}
	busyHandler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/rounds", nil))

	var buf bytes.Buffer
	FprintStats(&buf, telemetry.Snapshot{}, reg.Snapshot(), telemetry.HTTPMetricPrefix)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 14 {
		t.Fatalf("want 7 lines per route, got %d:\n%s", len(lines), buf.String())
	}
	if !sort.StringsAreSorted(lines) {
		t.Errorf("lines not sorted:\n%s", buf.String())
	}
	design := telemetry.HTTPMetricPrefix + "design"
	rounds := telemetry.HTTPMetricPrefix + "rounds"
	for _, want := range []string{
		"  " + design + telemetry.HTTPSuffixRequests + " 5",
		"  " + design + telemetry.HTTPSuffix2xx + " 5",
		"  " + design + telemetry.HTTPSuffixRejected + " 0",
		"  " + rounds + telemetry.HTTPSuffixRequests + " 1",
		"  " + rounds + telemetry.HTTPSuffix4xx + " 1",
		"  " + rounds + telemetry.HTTPSuffixRejected + " 1",
	} {
		if !slices.Contains(lines, want) {
			t.Errorf("missing %q in:\n%s", want, buf.String())
		}
	}
	for route, n := range map[string]string{design: "5", rounds: "1"} {
		prefix := "  " + route + telemetry.HTTPSuffixSeconds + " count " + n + " mean "
		if !slices.ContainsFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) }) {
			t.Errorf("no latency line %q... in:\n%s", prefix, buf.String())
		}
	}
	if strings.Contains(buf.String(), engine.MetricRounds) {
		t.Errorf("engine metric printed under the HTTP prefix:\n%s", buf.String())
	}

	buf.Reset()
	FprintStats(&buf, telemetry.Snapshot{}, telemetry.NewRegistry().Snapshot(), telemetry.HTTPMetricPrefix)
	if buf.String() != "" {
		t.Errorf("no routes printed %q", buf.String())
	}
}
