package dyncontract

import (
	"context"
	"testing"

	"dyncontract/internal/engine"
	"dyncontract/internal/platform"
	"dyncontract/internal/telemetry"
)

// BenchmarkTelemetryOverhead measures the cost of full instrumentation on
// the warmest, fastest round the engine has — a 1000-agent dedup-warm
// round on a persistent engine, where contract design is pure cache hits
// and engine construction is off the clock — so the telemetry share of
// the round is as large as it ever gets. Per round the engine spends ~8
// monotonic clock reads, a handful of atomic stores, and one small
// observer dispatch; compare "registry" with "nop" (and "nop" with
// BenchmarkEngineRound1k/dedup-warm) in BENCH_engine.json.
//
// The "nop" arm passes telemetry.Nop explicitly (not just a zero Config)
// to pin that a nil registry costs nothing beyond the nil check.
func BenchmarkTelemetryOverhead(b *testing.B) {
	pop := benchArchetypePopulation(b, 1000)
	ctx := context.Background()

	runWarm := func(b *testing.B, reg *telemetry.Registry) {
		b.Helper()
		eng := persistentEngine(b, pop, engine.Config{
			Policy:  &platform.DynamicPolicy{},
			Cache:   engine.NewCache(),
			Metrics: reg,
		})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := eng.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("nop", func(b *testing.B) {
		runWarm(b, telemetry.Nop)
	})
	b.Run("registry", func(b *testing.B) {
		reg := telemetry.NewRegistry()
		runWarm(b, reg)
		b.StopTimer()
		if got := reg.Snapshot().Counters[engine.MetricRounds]; got == 0 {
			b.Fatal("instrumented arm recorded no rounds")
		}
	})
}
