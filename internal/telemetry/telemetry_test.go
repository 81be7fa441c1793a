package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dyncontract/internal/stats"
	"dyncontract/internal/telemetry"
)

func TestCounter(t *testing.T) {
	var c telemetry.Counter
	if got := c.Value(); got != 0 {
		t.Fatalf("zero counter reads %d, want 0", got)
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("after Inc+Add(41): %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	var g telemetry.Gauge
	if got := g.Value(); got != 0 {
		t.Fatalf("zero gauge reads %v, want 0", got)
	}
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("after Set(2.5)+Add(-1): %v, want 1.5", got)
	}
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatalf("gauge should round-trip +Inf, got %v", g.Value())
	}
}

func TestHistogramObserve(t *testing.T) {
	h, err := telemetry.NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-3, 0, 1.9, 2, 9.999, 10, 25, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// NaN dropped; -3 clamps into bin 0; 10 and 25 clamp into the last bin.
	wantCounts := []uint64{3, 1, 0, 0, 3}
	if len(s.Counts) != len(wantCounts) {
		t.Fatalf("bins = %d, want %d", len(s.Counts), len(wantCounts))
	}
	for i, want := range wantCounts {
		if s.Counts[i] != want {
			t.Errorf("bin %d = %d, want %d (counts %v)", i, s.Counts[i], want, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7 (NaN must be dropped)", s.Count)
	}
	wantSum := -3 + 0 + 1.9 + 2 + 9.999 + 10 + 25
	if math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Errorf("Sum = %v, want %v", s.Sum, wantSum)
	}
	if got, want := s.Mean(), wantSum/7; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestNewHistogramErrors(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{"zero bins", 0, 1, 0},
		{"negative bins", 0, 1, -3},
		{"lo == hi", 2, 2, 4},
		{"lo > hi", 3, 1, 4},
		{"NaN bound", math.NaN(), 1, 4},
		{"infinite bound", 0, math.Inf(1), 4},
	}
	for _, tc := range cases {
		if _, err := telemetry.NewHistogram(tc.lo, tc.hi, tc.bins); err == nil {
			t.Errorf("%s: NewHistogram(%v, %v, %d) succeeded, want error",
				tc.name, tc.lo, tc.hi, tc.bins)
		}
	}
}

// TestHistogramMatchesStats pins the shared bucket-boundary convention: a
// telemetry histogram and a stats.NewHistogram over the same samples must
// land every observation in the same bin.
func TestHistogramMatchesStats(t *testing.T) {
	const lo, hi, bins = -1.0, 3.0, 8
	samples := []float64{-5, -1, -0.999, 0, 0.49999, 0.5, 1.7, 2.999, 3, 3.0001, 100}
	th, err := telemetry.NewHistogram(lo, hi, bins)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range samples {
		th.Observe(v)
	}
	sh, err := stats.NewHistogram(samples, lo, hi, bins)
	if err != nil {
		t.Fatal(err)
	}
	ts := th.Snapshot()
	for i := range sh.Counts {
		if uint64(sh.Counts[i]) != ts.Counts[i] {
			t.Errorf("bin %d: telemetry=%d stats=%d (conventions diverged)",
				i, ts.Counts[i], sh.Counts[i])
		}
	}
}

func TestNilSafety(t *testing.T) {
	// Everything on Nop and the handles it returns must be a no-op, not a
	// panic: this is the "telemetry disabled" path every instrumented
	// package takes by default.
	reg := telemetry.Nop
	c := reg.Counter("dyncontract_test_total")
	g := reg.Gauge("dyncontract_test_level")
	h := reg.Histogram("dyncontract_test_seconds", 0, 1, 10)
	if c != nil || g != nil || h != nil {
		t.Fatalf("Nop handles must be nil, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(2)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read zero")
	}
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("Nop snapshot not empty: %+v", s)
	}
	if got := (telemetry.Histogram{}); got.Count() != 0 {
		t.Fatalf("zero histogram Count = %d", got.Count())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := telemetry.NewRegistry()
	if c1, c2 := reg.Counter("a_total"), reg.Counter("a_total"); c1 != c2 {
		t.Fatal("same counter name must return the same handle")
	}
	if g1, g2 := reg.Gauge("b"), reg.Gauge("b"); g1 != g2 {
		t.Fatal("same gauge name must return the same handle")
	}
	h1 := reg.Histogram("c_seconds", 0, 1, 4)
	h2 := reg.Histogram("c_seconds", 0, 99, 7) // existing name: layout ignored
	if h1 != h2 {
		t.Fatal("same histogram name must return the same handle")
	}
	if s := h2.Snapshot(); s.Hi != 1 || len(s.Counts) != 4 {
		t.Fatalf("first layout must win, got [%v,%v)x%d", s.Lo, s.Hi, len(s.Counts))
	}
}

func TestRegistryInvalidName(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, bad := range []string{"", "9lives", "has space", "dash-ed", "é"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Counter(%q) did not panic", bad)
				}
			}()
			reg.Counter(bad)
		}()
	}
}

func TestConcurrency(t *testing.T) {
	reg := telemetry.NewRegistry()
	const goroutines, perG = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("dyncontract_test_ops_total")
			g := reg.Gauge("dyncontract_test_level")
			h := reg.Histogram("dyncontract_test_dur_seconds", 0, 1, 10)
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%10) / 10)
				if j%100 == 0 {
					reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	if got := s.Counters["dyncontract_test_ops_total"]; got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := s.Gauges["dyncontract_test_level"]; got != goroutines*perG {
		t.Errorf("gauge = %v, want %d (Add must be atomic)", got, goroutines*perG)
	}
	hs := s.Histograms["dyncontract_test_dur_seconds"]
	if hs.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	var binTotal uint64
	for _, c := range hs.Counts {
		binTotal += c
	}
	if binTotal != hs.Count {
		t.Errorf("bin total %d != count %d", binTotal, hs.Count)
	}
}

// TestZeroAllocHotPath pins the acceptance criterion: the warm per-round
// metrics path — Add/Set/Observe on resolved handles — allocates nothing.
func TestZeroAllocHotPath(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("dyncontract_test_total")
	g := reg.Gauge("dyncontract_test_level")
	h := reg.Histogram("dyncontract_test_seconds", 0, 1, 50)
	if n := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(0.5)
		h.Observe(0.123)
	}); n != 0 {
		t.Fatalf("warm path allocates %v objects per op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		telemetry.Nop.Counter("x_total").Inc()
	}); n != 0 {
		t.Fatalf("Nop path allocates %v objects per op, want 0", n)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := telemetry.Snapshot{
		Counters: map[string]uint64{"n_total": 2, "only_a_total": 1},
		Gauges:   map[string]float64{"level": 1, "only_a": 5},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"d_seconds": {Lo: 0, Hi: 1, Counts: []uint64{1, 0}, Count: 1, Sum: 0.2},
		},
	}
	b := telemetry.Snapshot{
		Counters: map[string]uint64{"n_total": 3},
		Gauges:   map[string]float64{"level": 9},
		Histograms: map[string]telemetry.HistogramSnapshot{
			"d_seconds": {Lo: 0, Hi: 1, Counts: []uint64{0, 2}, Count: 2, Sum: 1.4},
			"e_seconds": {Lo: 0, Hi: 2, Counts: []uint64{1}, Count: 1, Sum: 0.5},
		},
	}
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["n_total"] != 5 || m.Counters["only_a_total"] != 1 {
		t.Errorf("counters must add: %+v", m.Counters)
	}
	if m.Gauges["level"] != 9 || m.Gauges["only_a"] != 5 {
		t.Errorf("later gauge must win, earlier-only kept: %+v", m.Gauges)
	}
	d := m.Histograms["d_seconds"]
	if d.Count != 3 || d.Counts[0] != 1 || d.Counts[1] != 2 || math.Abs(d.Sum-1.6) > 1e-12 {
		t.Errorf("histogram merge wrong: %+v", d)
	}
	if e := m.Histograms["e_seconds"]; e.Count != 1 {
		t.Errorf("histogram present only on one side must carry over: %+v", e)
	}

	// Layout mismatch must fail loudly, naming the metric.
	b.Histograms["d_seconds"] = telemetry.HistogramSnapshot{Lo: 0, Hi: 2, Counts: []uint64{0, 2}, Count: 2, Sum: 1.4}
	if _, err := a.Merge(b); err == nil || !strings.Contains(err.Error(), "d_seconds") {
		t.Fatalf("mismatched layouts: err = %v, want mention of d_seconds", err)
	}
}

func TestWriteText(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("dyncontract_test_rounds_total").Add(3)
	reg.Gauge("dyncontract_test_utility").Set(-1.25)
	h := reg.Histogram("dyncontract_test_dur_seconds", 0, 1, 4)
	for _, v := range []float64{0.1, 0.3, 0.3, 2.0} {
		h.Observe(v)
	}
	h.ObserveExemplar(2.5, "deadbeef-trace")
	var buf bytes.Buffer
	if err := telemetry.WriteText(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"# TYPE dyncontract_test_rounds_total counter\n",
		"dyncontract_test_rounds_total 3\n",
		"# TYPE dyncontract_test_utility gauge\n",
		"dyncontract_test_utility -1.25\n",
		"# TYPE dyncontract_test_dur_seconds histogram\n",
		`dyncontract_test_dur_seconds_bucket{le="0.25"} 1` + "\n",
		`dyncontract_test_dur_seconds_bucket{le="0.5"} 3` + "\n",
		`dyncontract_test_dur_seconds_bucket{le="0.75"} 3` + "\n",
		`dyncontract_test_dur_seconds_bucket{le="+Inf"} 5` + "\n",
		"dyncontract_test_dur_seconds_sum 5.2",
		"dyncontract_test_dur_seconds_count 5\n",
		"# EXEMPLAR dyncontract_test_dur_seconds 2.5 deadbeef-trace\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\n---\n%s", want, got)
		}
	}
	assertPrometheusText(t, got)
}

// assertPrometheusText checks every line of a text exposition against the
// format's line grammar: comments start with #, samples are
// "name[{labels}] value" with a parseable float value.
func assertPrometheusText(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("unknown metric type in %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# EXEMPLAR ") {
			// "# EXEMPLAR <name> <value> <label>" — parsers skip comments;
			// we still insist the value is a float.
			parts := strings.Fields(line)
			if len(parts) != 5 {
				t.Errorf("malformed EXEMPLAR line %q", line)
				continue
			}
			if _, err := strconv.ParseFloat(parts[3], 64); err != nil {
				t.Errorf("EXEMPLAR line %q: value %q is not a float: %v", line, parts[3], err)
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("sample line %q has no value", line)
			continue
		}
		name, value := line[:sp], line[sp+1:]
		if name == "" {
			t.Errorf("sample line %q has no name", line)
		}
		if brace := strings.IndexByte(name, '{'); brace >= 0 && !strings.HasSuffix(name, "}") {
			t.Errorf("unbalanced labels in %q", line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("sample %q: value %q is not a float: %v", line, value, err)
		}
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("dyncontract_test_total")
	reg.Gauge("dyncontract_test_nan").Set(math.NaN())
	reg.Gauge("dyncontract_test_level").Set(4.5)
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	for i := 0; i < 3; i++ {
		c.Inc()
		if err := sink.Write(reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var rec telemetry.JSONLRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, rec.TS); err != nil {
			t.Errorf("line %d: bad timestamp %q: %v", i, rec.TS, err)
		}
		if got := rec.Counters["dyncontract_test_total"]; got != uint64(i+1) {
			t.Errorf("line %d: counter = %d, want %d", i, got, i+1)
		}
		if got := rec.Gauges["dyncontract_test_level"]; got != 4.5 {
			t.Errorf("line %d: gauge = %v, want 4.5", i, got)
		}
		if _, present := rec.Gauges["dyncontract_test_nan"]; present {
			t.Errorf("line %d: NaN gauge must be dropped, got %v", i, rec.Gauges)
		}
	}
}

func TestTimer(t *testing.T) {
	tm := telemetry.StartTimer()
	time.Sleep(2 * time.Millisecond)
	el := tm.Elapsed()
	if el < time.Millisecond {
		t.Fatalf("Elapsed = %v, want ≥ 1ms", el)
	}
	if s := tm.Seconds(); s < el.Seconds() {
		t.Fatalf("Seconds (%v) went backwards relative to Elapsed (%v)", s, el.Seconds())
	}
}
