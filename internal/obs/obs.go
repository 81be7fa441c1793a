// Package obs is the shared observability glue for this repository's
// command-line binaries: one flag set (-metrics, -metrics-listen,
// -cpuprofile, -memprofile), one Session that owns the resulting sinks —
// a JSONL snapshot file, an HTTP endpoint serving /metrics in Prometheus
// text format plus net/http/pprof, and CPU/heap profiles — and one stats
// printer (FprintStats) over registry snapshots, so cmd/platformsim,
// cmd/experiments and cmd/contractd print every counter in the same
// vocabulary as /metrics instead of growing their own copies.
package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
)

// Flags is the standard observability flag block. Register it on a
// FlagSet, parse, then Start a Session.
type Flags struct {
	// MetricsPath, when non-empty, appends one JSONL snapshot line per
	// Flush (the CLIs flush per round or per experiment) to this file.
	MetricsPath string
	// MetricsListen, when non-empty, serves /metrics (Prometheus text
	// format) and /debug/pprof/ on this TCP address for live scraping
	// and profiling; ":0" picks a free port (see Session.Addr).
	MetricsListen string
	// CPUProfile / MemProfile, when non-empty, write pprof profiles on
	// Session.Close.
	CPUProfile string
	MemProfile string
}

// Register installs the flag block on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.MetricsPath, "metrics", "", "append one JSONL metrics snapshot per round/flush to this file")
	fs.StringVar(&f.MetricsListen, "metrics-listen", "", "serve /metrics (Prometheus text) and /debug/pprof/ on this address")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
}

// Enabled reports whether any observability flag was set.
func (f *Flags) Enabled() bool {
	return f.MetricsPath != "" || f.MetricsListen != "" || f.CPUProfile != "" || f.MemProfile != ""
}

// Handler returns the HTTP handler a Session serves: GET /metrics renders
// reg's current snapshot in Prometheus text exposition format, and the
// standard net/http/pprof handlers are mounted under /debug/pprof/ so a
// long simulation can be profiled live (e.g. `go tool pprof
// http://addr/debug/pprof/profile`).
func Handler(reg *telemetry.Registry) http.Handler {
	return HandlerWith(reg, nil)
}

// Session owns the sinks a Flags block requested. All methods tolerate a
// nil receiver and an all-flags-off session, so call sites need no
// "observability enabled?" branching. Close it exactly once.
type Session struct {
	reg       *telemetry.Registry
	sink      *telemetry.JSONLSink
	sinkFile  *os.File
	srv       *http.Server
	lis       net.Listener
	srvClosed chan error
	cpuFile   *os.File
	memPath   string
}

// Start opens every requested sink against reg and returns the live
// session. With no flags set it returns an inert (still closeable)
// session. On error, anything already opened is released.
func (f *Flags) Start(reg *telemetry.Registry) (*Session, error) {
	s := &Session{reg: reg, memPath: f.MemProfile}
	fail := func(err error) (*Session, error) {
		_ = s.Close()
		return nil, err
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("obs: create cpu profile: %w", err))
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			return fail(fmt.Errorf("obs: start cpu profile: %w", err))
		}
		s.cpuFile = file
	}
	if f.MetricsPath != "" {
		file, err := os.Create(f.MetricsPath)
		if err != nil {
			return fail(fmt.Errorf("obs: create metrics file: %w", err))
		}
		s.sinkFile = file
		s.sink = telemetry.NewJSONLSink(file)
	}
	if f.MetricsListen != "" {
		lis, err := net.Listen("tcp", f.MetricsListen)
		if err != nil {
			return fail(fmt.Errorf("obs: listen %s: %w", f.MetricsListen, err))
		}
		s.lis = lis
		s.srv = &http.Server{Handler: Handler(reg)}
		s.srvClosed = make(chan error, 1)
		go func() { s.srvClosed <- s.srv.Serve(lis) }()
	}
	return s, nil
}

// Addr returns the metrics server's bound address ("" when not
// listening) — with "-metrics-listen :0" this is where the free port
// landed.
func (s *Session) Addr() string {
	if s == nil || s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Flush appends one JSONL snapshot line (no-op without -metrics).
func (s *Session) Flush() error {
	if s == nil || s.sink == nil {
		return nil
	}
	return s.sink.Write(s.reg.Snapshot())
}

// RoundObserver returns an engine observer that flushes one JSONL line at
// the end of every round — the "one line per round" mode of the sink. A
// flush failure aborts the run with the write error (disk-full should not
// silently truncate a metrics trail).
func (s *Session) RoundObserver() engine.Observer {
	return engine.Hooks{RoundEnd: func(engine.Round) error { return s.Flush() }}
}

// Close releases every sink: stops the CPU profile, writes the heap
// profile, closes the JSONL file, and shuts down the metrics server. It
// returns the first error encountered but always attempts every release.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var errs []error
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := s.cpuFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: close cpu profile: %w", err))
		}
		s.cpuFile = nil
	}
	if s.memPath != "" {
		if err := writeHeapProfile(s.memPath); err != nil {
			errs = append(errs, err)
		}
		s.memPath = ""
	}
	if s.sinkFile != nil {
		if err := s.sinkFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: close metrics file: %w", err))
		}
		s.sinkFile, s.sink = nil, nil
	}
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: close metrics server: %w", err))
		}
		select {
		case err := <-s.srvClosed:
			if err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, fmt.Errorf("obs: metrics server: %w", err))
			}
		case <-time.After(5 * time.Second):
			errs = append(errs, errors.New("obs: metrics server did not shut down"))
		}
		s.srv, s.lis = nil, nil
	}
	return errors.Join(errs...)
}

// writeHeapProfile snapshots the heap after a GC, the shape `go tool
// pprof` expects for -memprofile flags.
func writeHeapProfile(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create mem profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(file); err != nil {
		file.Close()
		return fmt.Errorf("obs: write mem profile: %w", err)
	}
	if err := file.Close(); err != nil {
		return fmt.Errorf("obs: close mem profile: %w", err)
	}
	return nil
}

// SimPrefixes selects the metrics the simulation CLIs' -stats prints:
// the engine's (rounds, stages, drift, design cache, respond
// memo) and the solver's.
var SimPrefixes = []string{"dyncontract_engine_", "dyncontract_solver_"}

// FprintStats prints one line per metric whose name starts with one of
// prefixes, sorted by name, describing what happened between prev and
// cur: a counter prints cur−prev, a gauge its current value, and a
// histogram the count, exact mean and p50/p95/p99 of its bin-count delta,
// each quantile as the bound its bin gives (binBound), since the bins
// cannot place it closer. A metric absent from prev counts from zero, so
// the zero Snapshot as prev prints cur's totals. It is the one stats view
// every CLI prints.
func FprintStats(w io.Writer, prev, cur telemetry.Snapshot, prefixes ...string) {
	match := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	var lines []string
	for name, v := range cur.Counters {
		if match(name) {
			lines = append(lines, fmt.Sprintf("  %s %d", name, v-prev.Counters[name]))
		}
	}
	for name, v := range cur.Gauges {
		if match(name) {
			lines = append(lines, fmt.Sprintf("  %s %g", name, v))
		}
	}
	for name, h := range cur.Histograms {
		if match(name) {
			d := histDelta(prev.Histograms[name], h)
			lines = append(lines, fmt.Sprintf("  %s count %d mean %.6g p50 %s p95 %s p99 %s",
				name, d.Count, d.Mean(), binBound(d, 0.50), binBound(d, 0.95), binBound(d, 0.99)))
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// binBound prints the q-quantile of h as what its bins know: "<=" the
// upper edge of the bin holding the quantile's rank. The top bin also
// holds every observation at or above Hi, so a quantile there prints ">="
// its lower edge. An empty histogram prints 0.
func binBound(h telemetry.HistogramSnapshot, q float64) string {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return "0"
	}
	rank := q * float64(total)
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	top := len(h.Counts) - 1
	var cum uint64
	for i, c := range h.Counts[:top] {
		cum += c
		if c > 0 && rank <= float64(cum) {
			return fmt.Sprintf("<=%.6g", h.Lo+float64(i+1)*width)
		}
	}
	return fmt.Sprintf(">=%.6g", h.Lo+float64(top)*width)
}

// histDelta returns cur − prev bin by bin. A prev with another bin layout
// (or none) cannot be subtracted, so cur is returned whole.
func histDelta(prev, cur telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if prev.Lo != cur.Lo || prev.Hi != cur.Hi || len(prev.Counts) != len(cur.Counts) {
		return cur
	}
	d := telemetry.HistogramSnapshot{Lo: cur.Lo, Hi: cur.Hi, Counts: make([]uint64, len(cur.Counts)),
		Count: cur.Count - prev.Count, Sum: cur.Sum - prev.Sum}
	for i := range cur.Counts {
		d.Counts[i] = cur.Counts[i] - prev.Counts[i]
	}
	return d
}
