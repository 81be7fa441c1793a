package telemetry

import "fmt"

// Snapshot is a point-in-time copy of a registry's metrics: plain data,
// safe to serialize, compare, and merge. The zero Snapshot is empty.
type Snapshot struct {
	// Counters maps name to cumulative count.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Gauges maps name to current level.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms maps name to bins and totals.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's frozen state. Counts follow the
// stats.Histogram convention: Counts[i] is the number of observations in
// [Lo+i·width, Lo+(i+1)·width), width = (Hi−Lo)/len(Counts), with
// out-of-range observations clamped into the edge bins.
type HistogramSnapshot struct {
	// Lo, Hi bound the binned range [Lo, Hi).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Counts holds per-bin observation counts.
	Counts []uint64 `json:"counts"`
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the exact (unquantized) sum of observations.
	Sum float64 `json:"sum"`
	// ExemplarValue/ExemplarLabel carry the histogram's worst labeled
	// observation (see Histogram.ObserveExemplar) — in this repo the
	// label is the trace ID of the slowest sampled request, linking the
	// metric to a trace in /debug/traces. Absent when nothing labeled.
	ExemplarValue float64 `json:"exemplar_value,omitempty"`
	ExemplarLabel string  `json:"exemplar_label,omitempty"`
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear interpolation
// inside the bin holding the target rank — the resolution is one bin
// width, which is what fixed uniform buckets can promise. Out-of-range q
// is clamped, an empty histogram returns 0, and because out-of-range
// observations clamp into the edge bins, tail quantiles of a saturated
// histogram return the edge bin's bound rather than inventing values
// beyond [Lo, Hi).
func (h HistogramSnapshot) Quantile(q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 || len(h.Counts) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next {
			frac := (rank - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Hi
}

// Merge combines two histogram snapshots bin by bin. Both must share the
// same bucket layout (Lo, Hi, bin count); merging an empty (zero-value)
// snapshot on either side returns the other unchanged.
func (h HistogramSnapshot) Merge(o HistogramSnapshot) (HistogramSnapshot, error) {
	if len(h.Counts) == 0 {
		return o, nil
	}
	if len(o.Counts) == 0 {
		return h, nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return HistogramSnapshot{}, fmt.Errorf(
			"telemetry: merge histogram [%v,%v)x%d with [%v,%v)x%d: bucket layouts differ",
			h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	out := HistogramSnapshot{
		Lo:     h.Lo,
		Hi:     h.Hi,
		Counts: make([]uint64, len(h.Counts)),
		Count:  h.Count + o.Count,
		Sum:    h.Sum + o.Sum,
	}
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] + o.Counts[i]
	}
	// Exemplars keep the worst sample across both sides, matching the
	// max-keeping semantics of ObserveExemplar.
	out.ExemplarValue, out.ExemplarLabel = h.ExemplarValue, h.ExemplarLabel
	if o.ExemplarLabel != "" && (h.ExemplarLabel == "" || o.ExemplarValue > h.ExemplarValue) {
		out.ExemplarValue, out.ExemplarLabel = o.ExemplarValue, o.ExemplarLabel
	}
	return out, nil
}

// Merge combines two snapshots, e.g. from parallel simulation runs:
// counters add, histograms merge bin-wise (layouts must agree), and for
// gauges — levels, not counts — the other snapshot's value wins where
// both define one (treat the receiver as "earlier" and o as "later").
func (s Snapshot) Merge(o Snapshot) (Snapshot, error) {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)+len(o.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)+len(o.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)+len(o.Histograms)),
	}
	for name, v := range s.Counters {
		out.Counters[name] = v
	}
	for name, v := range o.Counters {
		out.Counters[name] += v
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range o.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h
	}
	for name, h := range o.Histograms {
		merged, err := out.Histograms[name].Merge(h)
		if err != nil {
			return Snapshot{}, fmt.Errorf("%w (metric %q)", err, name)
		}
		out.Histograms[name] = merged
	}
	return out, nil
}
