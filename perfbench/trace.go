package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one client step share a trace ID.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory until the run ends. A nil recorder is
// off: every method is a no-op, so untraced runs pay one nil check.
type recorder struct {
	t0     time.Time
	spans  []span
	traces uint64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newTrace returns a fresh trace ID (0 when r is off).
func (r *recorder) newTrace() uint64 {
	if r == nil {
		return 0
	}
	r.traces++
	return r.traces
}

// durations lists the durations of every span called name, in ms.
func (r *recorder) durations(name string) []float64 {
	var ds []float64
	for _, s := range r.spans {
		if s.Name == name {
			ds = append(ds, s.ms())
		}
	}
	return ds
}

// begin opens a span and returns its ID (0 when r is off).
func (r *recorder) begin(name string, trace, parent uint64) uint64 {
	if r == nil {
		return 0
	}
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: r.now()})
	return id
}

// end closes the span begin returned and reports its duration.
func (r *recorder) end(id uint64) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	s := &r.spans[id-1]
	s.End = r.now()
	return time.Duration(s.End - s.Start)
}

// record adds a span that ran for d and ended now: a served request the
// caller timed itself.
func (r *recorder) record(name string, trace, parent uint64, d time.Duration) {
	if r == nil {
		return
	}
	end := r.now()
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: uint64(len(r.spans) + 1), Parent: parent, Start: end - int64(d), End: end})
}

// timed runs f inside a span.
func (r *recorder) timed(name string, trace, parent uint64, f func()) time.Duration {
	id := r.begin(name, trace, parent)
	f()
	return r.end(id)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerRow summarizes one span name: call count, duration p50 and tail,
// and the p50 of its self time (duration minus its children's coverage).
type layerRow struct {
	name    string
	lat     latency
	selfP50 float64
}

func (r *recorder) layerTable() []layerRow {
	children := make(map[uint64][]interval)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	durs := make(map[string][]float64)
	selfs := make(map[string][]float64)
	for _, s := range r.spans {
		durs[s.Name] = append(durs[s.Name], s.ms())
		selfs[s.Name] = append(selfs[s.Name], float64(selfTime(interval{s.Start, s.End}, children[s.ID]))/1e6)
	}
	rows := make([]layerRow, 0, len(durs))
	for name, d := range durs {
		rows = append(rows, layerRow{name: name, lat: summarize(d), selfP50: median(selfs[name])})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "# %-22s %8s %12s %12s %8s %12s\n", "span", "count", "p50_ms", "tail_ms", "tail_p", "self_p50_ms")
	for _, row := range rows {
		fmt.Fprintf(w, "# %-22s %8d %12.4f %12.4f %8.1f %12.4f\n", row.name, row.lat.n, row.lat.p50, row.lat.tail, row.lat.tailPct, row.selfP50)
	}
}
