package dyncontract

import (
	"context"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/spans"
)

// BenchmarkTraceOverhead measures span tracing against the same warmest
// round BenchmarkTelemetryOverhead uses — 1000 agents, dedup-warm, pure
// cache hits, one persistent engine — where any fixed per-round cost is
// proportionally largest.
// Three arms:
//
//   - disabled: no tracer anywhere — the production default. Bound by the
//     warm-round regression gate in scripts/bench.sh: tracing that is off
//     may not cost a measurable share of the round.
//   - sampled-out: a live tracer head-samples every round out, so each
//     iteration pays ID generation plus the sampling decision and the
//     engine sees a bare context (one nil check per stage, no heap).
//   - sampled-in: every iteration records a full trace — root, round, five
//     stages — modeling one traced request per round. This arm is allowed
//     to cost more; it exists to keep the price of a recorded trace
//     visible.
func BenchmarkTraceOverhead(b *testing.B) {
	pop := benchArchetypePopulation(b, 1000)

	// perRound returns the context for one iteration and a func to close
	// the iteration's trace (no-op when untraced).
	runWarm := func(b *testing.B, perRound func() (context.Context, func())) {
		b.Helper()
		eng := persistentEngine(b, pop, engine.Config{Policy: &platform.DynamicPolicy{}, Cache: engine.NewCache()})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ctx, end := perRound()
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
			end()
		}
	}

	noop := func() {}
	bare := func() (context.Context, func()) {
		return context.Background(), noop
	}

	b.Run("disabled", func(b *testing.B) {
		runWarm(b, bare)
	})
	b.Run("sampled-out", func(b *testing.B) {
		tracer := spans.New(spans.Config{Sample: 0, Seed: 1, Recorder: spans.NewRecorder(4, 2)})
		runWarm(b, func() (context.Context, func()) {
			// Sample 0 never samples: StartRoot returns nil, ContextWith
			// passes the context through, the engine sees no tracing.
			sp := tracer.StartRoot("bench.round", tracer.NewTraceID())
			if sp == nil {
				return context.Background(), noop
			}
			b.Fatal("sample=0 produced a span")
			return nil, nil
		})
	})
	b.Run("sampled-in", func(b *testing.B) {
		rec := spans.NewRecorder(4, 2)
		tracer := spans.New(spans.Config{Sample: 1, Seed: 1, Recorder: rec})
		runWarm(b, func() (context.Context, func()) {
			sp := tracer.Root("bench.round")
			return spans.ContextWith(context.Background(), sp), sp.End
		})
		b.StopTimer()
		if rec.Completed() == 0 {
			b.Fatal("traced arm recorded no traces")
		}
	})
}
