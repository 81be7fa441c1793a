package spans

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTraces is a fixed two-trace fixture: one sharded round request
// and one fast design query, with hand-picked times so the exporters'
// output is byte-stable.
func goldenTraces() []Trace {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	t1 := TraceID{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	t2 := TraceID{0xca, 0xfe, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2}
	return []Trace{
		{
			ID:    t1,
			Start: at(0),
			End:   at(12),
			Spans: []SpanData{
				{Trace: t1, ID: 4, Parent: 3, Name: "shard.design", Start: at(3), End: at(5),
					Attrs: []Attr{Int("shard", 0), Int("cache.hits", 10), Int("cache.misses", 2)}},
				{Trace: t1, ID: 5, Parent: 3, Name: "shard.design", Start: at(3), End: at(6),
					Attrs: []Attr{Int("shard", 1), Int("cache.hits", 8), Int("cache.misses", 0)}},
				{Trace: t1, ID: 3, Parent: 2, Name: "engine.stage.design", Start: at(3), End: at(7)},
				{Trace: t1, ID: 2, Parent: 1, Name: "engine.round", Start: at(2), End: at(11),
					Attrs: []Attr{Str("drift", "viewStructural"), Int("round", 4)}},
				{Trace: t1, ID: 1, Name: "http POST /v1/sessions/{id}/rounds", Start: at(0), End: at(12),
					Attrs: []Attr{Str("session", "s-1"), Int("status", 200)}},
			},
		},
		{
			ID:    t2,
			Start: at(20),
			End:   at(20), // sub-microsecond span: exporter widens to 1µs
			Spans: []SpanData{
				{Trace: t2, ID: 6, Name: "session.design", Start: at(20), End: at(20)},
			},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestWriteChromeGolden pins the Chrome trace_event output byte-for-byte
// against testdata/chrome_golden.json and sanity-checks the structure a
// viewer depends on.
func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTraces()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chrome_golden.json", buf.Bytes())

	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	// 2 metadata events + 5 + 1 span events.
	if len(file.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8", len(file.TraceEvents))
	}
	meta, complete := 0, 0
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			if ev["dur"].(float64) < 1 {
				t.Fatalf("complete event with sub-µs duration: %v", ev)
			}
		default:
			t.Fatalf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 2 || complete != 6 {
		t.Fatalf("got %d metadata + %d complete events, want 2 + 6", meta, complete)
	}
}

// TestWriteJSONL pins the line-delimited form: one JSON trace per line,
// decodable back to the same IDs and span counts.
func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	traces := goldenTraces()
	if err := WriteJSONL(&buf, traces); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(traces) {
		t.Fatalf("got %d lines, want %d", len(lines), len(traces))
	}
	for i, line := range lines {
		var got Trace
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", i, err)
		}
		if got.ID != traces[i].ID {
			t.Fatalf("line %d trace ID = %s, want %s", i, got.ID, traces[i].ID)
		}
		if len(got.Spans) != len(traces[i].Spans) {
			t.Fatalf("line %d span count = %d, want %d", i, len(got.Spans), len(traces[i].Spans))
		}
	}
}
