// Command contractd serves long-lived contract-design sessions over the
// versioned JSON API of internal/server: create a session from a posted
// population, advance rounds, run design-only queries (each on its own
// request, against the cache the rounds warm), and drift the population
// between rounds.
//
// Usage:
//
//	contractd [-listen addr] [-queue n] [-max-inflight n]
//	          [-max-sessions n] [-timeout d] [-drain-timeout d]
//	          [-log-level debug|info|warn|error] [-log-format text|json]
//	          [-trace] [-trace-sample p] [-trace-out file]
//	          [-journal-dir dir] [-journal-sync buffered|fsync]
//	          [-snapshot-every n]
//
// With -journal-dir, sessions are durable: every command is written ahead
// to a per-session log under the directory, snapshots (forced via
// POST /v1/sessions/{id}/snapshot or automatic every -snapshot-every
// commands) compact it, and a restart with the same directory recovers
// every journaled session with a byte-identical ledger before listening.
// -journal-sync picks the durability level: buffered (default, write-behind
// flushed when the session goes idle — survives kill -9 up to the flushed
// prefix) or fsync (every command fsynced before it executes — a served
// response implies a durable record).
//
// The server exposes /metrics (Prometheus text) and /debug/pprof/ beside
// the API; with -trace it also records execution spans — HTTP route →
// session queue → engine round → stages — serves them at
// /debug/traces, and writes the retained traces to -trace-out on exit
// (.json gets Chrome trace_event format for Perfetto). Every request is
// logged through log/slog with its route, status, duration, session, and
// trace ID. On SIGINT/SIGTERM it drains: in-flight work completes, queued
// work is answered 503, then the listener closes and the per-route request
// statistics are printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dyncontract/internal/journal"
	"dyncontract/internal/obs"
	"dyncontract/internal/server"
	"dyncontract/internal/telemetry"
)

// testHookReady, when set by a test, is called with the bound address and
// a function that triggers the same drain-and-exit path as SIGTERM.
var testHookReady func(addr string, shutdown func())

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "contractd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("contractd", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:8080", "listen address")
		cmdQueue     = fs.Int("queue", 16, "per-session round/drift queue bound")
		maxInFlight  = fs.Int("max-inflight", 256, "per-session in-flight request cap")
		maxSessions  = fs.Int("max-sessions", 64, "live session cap")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request server-side deadline")
		drainTimeout = fs.Duration("drain-timeout", 15*time.Second, "graceful drain deadline on shutdown")
		logLevel     = fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		logFormat    = fs.String("log-format", "text", "log line format: text or json")
		journalDir   = fs.String("journal-dir", "", "session journal directory (empty = durability off)")
		journalSync  = fs.String("journal-sync", "buffered", "journal durability: buffered or fsync")
		snapEvery    = fs.Int("snapshot-every", 1024, "auto-snapshot a session after this many commands (0 = manual only)")
		traceFlags   obs.TraceFlags
	)
	traceFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := buildLogger(out, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	tracer, recorder := traceFlags.Build()

	reg := telemetry.NewRegistry()
	var store *journal.Store
	if *journalDir != "" {
		mode, err := journal.ParseMode(*journalSync)
		if err != nil {
			return err
		}
		if store, err = journal.Open(*journalDir, journal.Options{Mode: mode, Metrics: reg}); err != nil {
			return err
		}
	}
	srv := server.New(server.Config{
		CommandQueue:   *cmdQueue,
		MaxInFlight:    *maxInFlight,
		MaxSessions:    *maxSessions,
		RequestTimeout: *timeout,
		Metrics:        reg,
		Tracer:         tracer,
		Logger:         logger,
		Journal:        store,
		SnapshotEvery:  *snapEvery,
	})
	if store != nil {
		logger.Info("journal open", "dir", store.Dir(), "sync", store.Mode().String(), "snapshot_every", *snapEvery)
		start := time.Now()
		stats, err := srv.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		if stats.Sessions+stats.Failed > 0 {
			logger.Info("recovery complete",
				"sessions", stats.Sessions,
				"replayed", stats.Replayed,
				"failed", stats.Failed,
				"duration", time.Since(start),
			)
		}
	}

	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	endpoints := "metrics at /metrics, pprof at /debug/pprof/"
	if recorder != nil {
		endpoints += ", traces at /debug/traces"
	}
	logger.Info("listening on http://"+lis.Addr().String(), "endpoints", endpoints)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if testHookReady != nil {
		testHookReady(lis.Addr().String(), stop)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(lis) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	logger.Info("draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := traceFlags.Export(recorder); err != nil {
		logger.Warn("trace export failed", "err", err)
	} else if traceFlags.Out != "" {
		logger.Info("traces written", "path", traceFlags.Out)
	}

	obs.FprintStats(out, telemetry.Snapshot{}, reg.Snapshot(), telemetry.HTTPMetricPrefix)
	logger.Info("bye")
	return nil
}

// buildLogger assembles the process logger from the -log-level and
// -log-format flags.
func buildLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
