// Package telemetry is the repository's dependency-free metrics layer: a
// concurrency-safe registry of named counters, gauges, and fixed-bucket
// histograms, a monotonic-clock Timer, and two exposition sinks
// (Prometheus text format and JSONL snapshots).
//
// Design constraints, in order:
//
//  1. Zero allocations on the hot path. Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations (a short CAS loop for
//     float accumulation); handles are resolved once, up front, and then
//     used round after round.
//  2. Nil is off. Every metric method is nil-receiver-safe and every
//     Registry method accepts a nil receiver, so instrumented code holds
//     unresolved handles instead of branching; Nop (a nil *Registry) is
//     the canonical "telemetry disabled" value.
//  3. Standard library only. The package imports nothing from this module
//     and nothing outside the standard library, so any layer — engine,
//     solver, CLIs — can depend on it without cycles.
//
// Metric names follow the repo-wide scheme dyncontract_<pkg>_<name>
// (DESIGN.md § Telemetry), with the usual Prometheus conventions: _total
// for counters, _seconds for duration histograms.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Nop is the disabled registry: a nil *Registry. Every method on it (and
// on the nil metric handles it hands out) is a cheap no-op, so passing
// Nop anywhere a registry is accepted turns collection off without any
// call-site branching.
var Nop *Registry

// Registry is a concurrency-safe collection of named metrics. Metrics are
// created on first use (get-or-create) and owned by the registry, so a
// name never changes hands and a counter only goes up; names live in one
// flat namespace per metric kind.
//
// The zero value is NOT ready to use — call NewRegistry. (A nil *Registry
// is valid, and means "collection disabled"; see Nop.)
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty, ready-to-use registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// mustValidName panics on names outside the Prometheus-compatible
// alphabet [a-zA-Z_:][a-zA-Z0-9_:]*. An invalid name is a programmer
// error (names are compile-time constants throughout this repo), so it is
// caught loudly rather than silently exported as garbage.
func mustValidName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				panic(fmt.Sprintf("telemetry: metric name %q starts with a digit", name))
			}
		default:
			panic(fmt.Sprintf("telemetry: metric name %q contains %q", name, c))
		}
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	mustValidName(name)
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	mustValidName(name)
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given uniform [lo, hi) bucket layout on first use. An existing name
// returns the existing histogram unchanged (first layout wins); invalid
// layouts panic, mirroring NewHistogram's errors. A nil registry returns
// a nil (no-op) handle.
func (r *Registry) Histogram(name string, lo, hi float64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	mustValidName(name)
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	h, err := NewHistogram(lo, hi, bins)
	if err != nil {
		panic(fmt.Sprintf("telemetry: histogram %q: %v", name, err))
	}
	r.hists[name] = h
	return h
}

// Snapshot captures a point-in-time copy of every registered metric. A
// nil registry snapshots empty. Snapshots are plain data: mergeable
// (Snapshot.Merge), JSON-serializable, and renderable as Prometheus text
// (WriteText).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// sortedKeys returns m's keys in lexicographic order — exposition sinks
// use it so output is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
