// Package obs is the shared observability glue for this repository's
// command-line binaries: one flag set (-metrics, -metrics-listen,
// -cpuprofile, -memprofile), one Session that owns the resulting sinks —
// a JSONL snapshot file, an HTTP endpoint serving /metrics in Prometheus
// text format plus net/http/pprof, and CPU/heap profiles — and one
// cache-stats printer, so cmd/platformsim and cmd/experiments stay
// wiring-identical instead of growing two copies.
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

// FprintCacheStats renders design-cache counters the way both CLIs print
// them — the one shared copy of the `-cachestats` output format.
func FprintCacheStats(w io.Writer, s engine.CacheStats) {
	fmt.Fprintf(w, "  design cache: %d hits, %d misses (%d distinct designs held)\n",
		s.Hits, s.Misses, s.Entries)
}

// FprintRespondStats renders respond-memo counters the way both CLIs
// print them — the one shared copy of the `-respondstats` output format.
func FprintRespondStats(w io.Writer, s engine.RespondStats) {
	fmt.Fprintf(w, "  respond memo: %d hits, %d misses (%d responses held)\n",
		s.Hits, s.Misses, s.Entries)
}

// CacheStatsFrom reconstructs a CacheStats view from a registry snapshot
// (the MetricCache* names), for call sites that observe a run through its
// registry rather than holding the *engine.Cache.
func CacheStatsFrom(s telemetry.Snapshot) engine.CacheStats {
	return engine.CacheStats{
		Hits:    s.Counters[engine.MetricCacheHits],
		Misses:  s.Counters[engine.MetricCacheMisses],
		Entries: int(s.Gauges[engine.MetricCacheEntries]),
	}
}

// DeltaCacheStats returns cur−prev on the counters (Entries stays
// absolute): the per-run view when several simulations share one
// registry, as cmd/experiments does across experiments.
func DeltaCacheStats(prev, cur engine.CacheStats) engine.CacheStats {
	return engine.CacheStats{
		Hits:    cur.Hits - prev.Hits,
		Misses:  cur.Misses - prev.Misses,
		Entries: cur.Entries,
	}
}

// RespondStatsFrom reconstructs a RespondStats view from a registry
// snapshot (the MetricRespond* names), mirroring CacheStatsFrom.
func RespondStatsFrom(s telemetry.Snapshot) engine.RespondStats {
	return engine.RespondStats{
		Hits:    s.Counters[engine.MetricRespondHits],
		Misses:  s.Counters[engine.MetricRespondMisses],
		Entries: int(s.Gauges[engine.MetricRespondEntries]),
	}
}

// DeltaRespondStats returns cur−prev on the counters (Entries stays
// absolute), mirroring DeltaCacheStats for runs sharing one memo or
// registry.
func DeltaRespondStats(prev, cur engine.RespondStats) engine.RespondStats {
	return engine.RespondStats{
		Hits:    cur.Hits - prev.Hits,
		Misses:  cur.Misses - prev.Misses,
		Entries: cur.Entries,
	}
}

// ShardStats summarizes the round pipeline's per-shard stage activity
// as read from a registry snapshot: the current shard count and, per
// stage, how many per-shard executions ran and how long they took in
// total. Design runs once per shard per rebuilt round; RespondRuns below
// DesignRuns×rounds is warm rounds skipping the respond stage per shard.
type ShardStats struct {
	Shards                        int
	DesignRuns, RespondRuns       uint64
	DesignSeconds, RespondSeconds float64
}

// ShardStatsFrom reads the shard gauge and per-shard stage histograms
// (the MetricShard* names) out of a registry snapshot, mirroring
// CacheStatsFrom.
func ShardStatsFrom(s telemetry.Snapshot) ShardStats {
	design := s.Histograms[engine.MetricShardDesignSeconds]
	respond := s.Histograms[engine.MetricShardRespondSeconds]
	return ShardStats{
		Shards:         int(s.Gauges[engine.MetricShards]),
		DesignRuns:     design.Count,
		RespondRuns:    respond.Count,
		DesignSeconds:  design.Sum,
		RespondSeconds: respond.Sum,
	}
}

// DeltaShardStats returns cur−prev on the run counts and timings (Shards
// stays absolute): the per-run view when several simulations share one
// registry, mirroring DeltaCacheStats.
func DeltaShardStats(prev, cur ShardStats) ShardStats {
	return ShardStats{
		Shards:         cur.Shards,
		DesignRuns:     cur.DesignRuns - prev.DesignRuns,
		RespondRuns:    cur.RespondRuns - prev.RespondRuns,
		DesignSeconds:  cur.DesignSeconds - prev.DesignSeconds,
		RespondSeconds: cur.RespondSeconds - prev.RespondSeconds,
	}
}

// DriftStats summarizes the engine's sparse-drift activity as read from a
// registry snapshot: how many agents were named by consumed Touch scopes,
// how the shard partition split between rebuilt (owning a touched agent)
// and skipped (left warm) shards, and the total time spent in sparse view
// refreshes. Bump and legacy Drift-hook rounds take the full-rebuild path
// and count nothing here.
type DriftStats struct {
	TouchedAgents  uint64
	JoinedAgents   uint64
	LeftAgents     uint64
	Compactions    uint64
	ShardsRebuilt  uint64
	ShardsSkipped  uint64
	RebuildRuns    uint64
	RebuildSeconds float64
}

// DriftStatsFrom reads the drift counters and the sparse-refresh timing
// histogram (the MetricDrift* names) out of a registry snapshot,
// mirroring ShardStatsFrom.
func DriftStatsFrom(s telemetry.Snapshot) DriftStats {
	rebuild := s.Histograms[engine.MetricDriftRebuildSeconds]
	return DriftStats{
		TouchedAgents:  s.Counters[engine.MetricDriftTouchedAgents],
		JoinedAgents:   s.Counters[engine.MetricDriftJoins],
		LeftAgents:     s.Counters[engine.MetricDriftLeaves],
		Compactions:    s.Counters[engine.MetricDriftCompactions],
		ShardsRebuilt:  s.Counters[engine.MetricDriftShardsRebuilt],
		ShardsSkipped:  s.Counters[engine.MetricDriftShardsSkipped],
		RebuildRuns:    rebuild.Count,
		RebuildSeconds: rebuild.Sum,
	}
}

// DeltaDriftStats returns cur−prev on every field — all of them
// cumulative — for runs sharing one registry, mirroring DeltaShardStats.
func DeltaDriftStats(prev, cur DriftStats) DriftStats {
	return DriftStats{
		TouchedAgents:  cur.TouchedAgents - prev.TouchedAgents,
		JoinedAgents:   cur.JoinedAgents - prev.JoinedAgents,
		LeftAgents:     cur.LeftAgents - prev.LeftAgents,
		Compactions:    cur.Compactions - prev.Compactions,
		ShardsRebuilt:  cur.ShardsRebuilt - prev.ShardsRebuilt,
		ShardsSkipped:  cur.ShardsSkipped - prev.ShardsSkipped,
		RebuildRuns:    cur.RebuildRuns - prev.RebuildRuns,
		RebuildSeconds: cur.RebuildSeconds - prev.RebuildSeconds,
	}
}

// HTTPRouteStats summarizes one instrumented HTTP route (the
// telemetry.InstrumentHandler metric set) as read from a registry
// snapshot: request and status-class counts, the backpressure rejections,
// and latency aggregates from the route's histogram.
type HTTPRouteStats struct {
	Route                   string
	Requests, Rejected      uint64
	Status2xx, Status3xx    uint64
	Status4xx, Status5xx    uint64
	MeanSeconds, P50Seconds float64
	P95Seconds, P99Seconds  float64
}

// HTTPStatsFrom extracts every instrumented route from a registry
// snapshot, sorted by route name — the serving-layer sibling of
// CacheStatsFrom/ShardStatsFrom, used by contractd's exit summary.
func HTTPStatsFrom(s telemetry.Snapshot) []HTTPRouteStats {
	var out []HTTPRouteStats
	for name, hist := range s.Histograms {
		if !strings.HasPrefix(name, telemetry.HTTPMetricPrefix) || !strings.HasSuffix(name, telemetry.HTTPSuffixSeconds) {
			continue
		}
		route := strings.TrimSuffix(strings.TrimPrefix(name, telemetry.HTTPMetricPrefix), telemetry.HTTPSuffixSeconds)
		base := telemetry.HTTPMetricPrefix + route
		out = append(out, HTTPRouteStats{
			Route:       route,
			Requests:    s.Counters[base+telemetry.HTTPSuffixRequests],
			Rejected:    s.Counters[base+telemetry.HTTPSuffixRejected],
			Status2xx:   s.Counters[base+telemetry.HTTPSuffix2xx],
			Status3xx:   s.Counters[base+telemetry.HTTPSuffix3xx],
			Status4xx:   s.Counters[base+telemetry.HTTPSuffix4xx],
			Status5xx:   s.Counters[base+telemetry.HTTPSuffix5xx],
			MeanSeconds: hist.Mean(),
			P50Seconds:  hist.Quantile(0.50),
			P95Seconds:  hist.Quantile(0.95),
			P99Seconds:  hist.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// FprintHTTPStats renders per-route serving stats one line per route —
// the shared format for contractd's drain summary and tests.
func FprintHTTPStats(w io.Writer, stats []HTTPRouteStats) {
	if len(stats) == 0 {
		fmt.Fprintf(w, "  http: no instrumented routes\n")
		return
	}
	for _, s := range stats {
		fmt.Fprintf(w, "  http %-16s %8d reqs (%d rejected, %d 5xx)  mean %8.4fs  p50 %8.4fs  p95 %8.4fs  p99 %8.4fs\n",
			s.Route, s.Requests, s.Rejected, s.Status5xx, s.MeanSeconds, s.P50Seconds, s.P95Seconds, s.P99Seconds)
	}
}

// FprintShardStats renders the round pipeline's per-shard stage metrics
// — the `-shardstats` output format.
func FprintShardStats(w io.Writer, s ShardStats) {
	mean := func(sum float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	fmt.Fprintf(w, "  shards: %d\n", s.Shards)
	fmt.Fprintf(w, "  shard design:  %6d runs, mean %.6fs\n", s.DesignRuns, mean(s.DesignSeconds, s.DesignRuns))
	fmt.Fprintf(w, "  shard respond: %6d runs, mean %.6fs\n", s.RespondRuns, mean(s.RespondSeconds, s.RespondRuns))
}

// FprintDriftStats renders the engine's sparse-drift counters — the
// `-driftstats` output format. Stats with no touched agents (no Touch
// scope ever consumed: full-rebuild drifts only, or telemetry disabled)
// print a single explanatory line.
func FprintDriftStats(w io.Writer, s DriftStats) {
	if s.TouchedAgents == 0 && s.JoinedAgents == 0 && s.LeftAgents == 0 {
		fmt.Fprintf(w, "  drift: no scoped drift (Touch/TouchJoin/TouchLeave) observed\n")
		return
	}
	fmt.Fprintf(w, "  drift touched: %d agents across %d sparse refreshes\n", s.TouchedAgents, s.RebuildRuns)
	if s.JoinedAgents > 0 || s.LeftAgents > 0 {
		fmt.Fprintf(w, "  drift churn:   %d joined, %d left, %d compactions\n", s.JoinedAgents, s.LeftAgents, s.Compactions)
	}
	fmt.Fprintf(w, "  drift shards:  %d rebuilt, %d skipped\n", s.ShardsRebuilt, s.ShardsSkipped)
	mean := 0.0
	if s.RebuildRuns > 0 {
		mean = s.RebuildSeconds / float64(s.RebuildRuns)
	}
	fmt.Fprintf(w, "  drift refresh: %.6fs total, mean %.6fs\n", s.RebuildSeconds, mean)
}
