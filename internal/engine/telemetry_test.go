package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
)

// TestMetricsLeaveLedgerUnchanged pins the tentpole's core invariant:
// enabling Config.Metrics (which also auto-stacks a TelemetryObserver)
// must not change a single ledger value.
func TestMetricsLeaveLedgerUnchanged(t *testing.T) {
	ctx := context.Background()
	run := func(reg *telemetry.Registry) []engine.Round {
		t.Helper()
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 30), engine.Config{
			Policy:  &designPolicy{},
			Rounds:  3,
			Cache:   engine.NewCache(),
			Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ledger
	}
	plain := run(telemetry.Nop)
	instrumented := run(telemetry.NewRegistry())
	if !reflect.DeepEqual(plain, instrumented) {
		t.Error("instrumented run produced a different ledger")
	}
}

// TestStackedTelemetryObserver pins the satellite requirement: the
// ready-made observer, stacked manually alongside user observers, exports
// the ledger without altering it and without erroring.
func TestStackedTelemetryObserver(t *testing.T) {
	pop := archetypePopulation(t, 9)
	reg := telemetry.NewRegistry()
	const rounds = 4
	ledger, err := engine.RunLedger(context.Background(), pop, engine.Config{
		Policy:    &designPolicy{},
		Rounds:    rounds,
		Observers: []engine.Observer{engine.TelemetryObserver(reg)},
	})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := engine.RunLedger(context.Background(), archetypePopulation(t, 9), engine.Config{
		Policy: &designPolicy{},
		Rounds: rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ledger, bare) {
		t.Error("stacked telemetry observer altered the ledger")
	}

	s := reg.Snapshot()
	if got := s.Counters[engine.MetricRounds]; got != rounds {
		t.Errorf("%s = %d, want %d", engine.MetricRounds, got, rounds)
	}
	if got := s.Counters[engine.MetricOutcomes]; got != rounds*uint64(len(pop.Agents)) {
		t.Errorf("%s = %d, want %d", engine.MetricOutcomes, got, rounds*len(pop.Agents))
	}
	last := ledger[len(ledger)-1]
	for name, want := range map[string]float64{
		engine.MetricRoundUtility:      last.Utility,
		engine.MetricRoundBenefit:      last.Benefit,
		engine.MetricRoundCompensation: last.Cost,
		engine.MetricRoundAgents:       float64(len(pop.Agents)),
	} {
		if got := s.Gauges[name]; got != want {
			t.Errorf("%s = %v, want %v (last round)", name, got, want)
		}
	}
}

// TestStageTimings checks the per-stage instrumentation: with
// Config.Metrics set, every stage histogram records exactly one
// observation per completed round, with finite non-negative durations.
func TestStageTimings(t *testing.T) {
	reg := telemetry.NewRegistry()
	const rounds = 5
	_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 12), engine.Config{
		Policy:  &designPolicy{},
		Rounds:  rounds,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	stages := []string{
		engine.MetricStageDesignSeconds,
		engine.MetricStageRespondSeconds,
		engine.MetricStageSettleSeconds,
		engine.MetricStageObserveSeconds,
		engine.MetricRoundSeconds,
	}
	var stageSum float64
	for _, name := range stages {
		h, ok := s.Histograms[name]
		if !ok {
			t.Errorf("missing histogram %s", name)
			continue
		}
		if h.Count != rounds {
			t.Errorf("%s count = %d, want %d (one observation per round)", name, h.Count, rounds)
		}
		if h.Sum < 0 || math.IsNaN(h.Sum) || math.IsInf(h.Sum, 0) {
			t.Errorf("%s sum = %v, want finite ≥ 0", name, h.Sum)
		}
		if name != engine.MetricRoundSeconds {
			stageSum += h.Sum
		}
	}
	// The four stages partition the round (minus inter-stage clock reads),
	// so their total cannot exceed the whole-round total.
	if round := s.Histograms[engine.MetricRoundSeconds].Sum; stageSum > round*1.5+1e-3 {
		t.Errorf("stage sums (%v s) wildly exceed round total (%v s)", stageSum, round)
	}
	// Worker utility is only computable inside the respond loop; the gauge
	// must have been exported (honest workers accept, so it is nonzero).
	if wu := s.Gauges[engine.MetricRoundWorkerUtility]; wu == 0 {
		t.Errorf("%s = 0, want last round's summed worker utility", engine.MetricRoundWorkerUtility)
	}
}

// TestCacheExportTo pins the "Stats() stays a thin view" contract: after
// ExportTo, the registry snapshot and Stats() read the same counters.
func TestCacheExportTo(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache := engine.NewCache()
	_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 30), engine.Config{
		Policy:  &designPolicy{},
		Rounds:  3,
		Cache:   cache,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := cache.Stats()
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Fatalf("archetype population must hit and miss the cache, got %+v", stats)
	}
	s := reg.Snapshot()
	if got := s.Counters[engine.MetricCacheHits]; got != stats.Hits {
		t.Errorf("registry hits = %d, Stats().Hits = %d", got, stats.Hits)
	}
	if got := s.Counters[engine.MetricCacheMisses]; got != stats.Misses {
		t.Errorf("registry misses = %d, Stats().Misses = %d", got, stats.Misses)
	}
	if got := int(s.Gauges[engine.MetricCacheEntries]); got != stats.Entries {
		t.Errorf("registry entries = %d, Stats().Entries = %d", got, stats.Entries)
	}
}

// metricsUserPolicy records whether the engine wired a registry in.
type metricsUserPolicy struct {
	designPolicy
	got *telemetry.Registry
}

func (p *metricsUserPolicy) UseMetrics(reg *telemetry.Registry) { p.got = reg }

func TestMetricsUserWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	pol := &metricsUserPolicy{}
	if _, err := engine.New(archetypePopulation(t, 3), engine.Config{
		Policy: pol, Rounds: 1, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if pol.got != reg {
		t.Error("MetricsUser policy did not receive Config.Metrics")
	}
	pol2 := &metricsUserPolicy{}
	if _, err := engine.New(archetypePopulation(t, 3), engine.Config{
		Policy: pol2, Rounds: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if pol2.got != nil {
		t.Error("UseMetrics called without Config.Metrics")
	}
}

// TestObserverErrorVerbatimWithMetrics strengthens the propagation pin: a
// non-ErrStop observer error aborts the run and is returned verbatim
// (err == boom, not a wrap) even with the auto-stacked TelemetryObserver
// in the chain, and a wrapped ErrStop still ends the run cleanly.
func TestObserverErrorVerbatimWithMetrics(t *testing.T) {
	boom := errors.New("observer exploded")
	fail := engine.Hooks{RoundEnd: func(engine.Round) error { return boom }}
	eng, err := engine.New(archetypePopulation(t, 3), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    3,
		Observers: []engine.Observer{fail},
		Metrics:   telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Run(context.Background()); got != boom {
		t.Errorf("err = %v, want the observer's error verbatim", got)
	}

	stop := engine.Hooks{RoundEnd: func(r engine.Round) error {
		return fmt.Errorf("converged at %d: %w", r.Index, engine.ErrStop)
	}}
	reg := telemetry.NewRegistry()
	eng2, err := engine.New(archetypePopulation(t, 3), engine.Config{
		Policy:    &designPolicy{},
		Rounds:    10,
		Observers: []engine.Observer{stop},
		Metrics:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Run(context.Background()); got != nil {
		t.Errorf("wrapped ErrStop leaked: %v", got)
	}
	// The stopped round still lands in the stage histograms (timings are
	// observed before the stop short-circuits the loop).
	if h := reg.Snapshot().Histograms[engine.MetricRoundSeconds]; h.Count != 1 {
		t.Errorf("round histogram count = %d, want 1 (the stopped round)", h.Count)
	}
}

// churnExclusionPolicy pays a flat 1 to every agent except a set that
// rotates each round, which it excludes (nil contract).
type churnExclusionPolicy struct{ round int }

func (p *churnExclusionPolicy) Name() string { return "churn-exclusion" }

func (p *churnExclusionPolicy) Contracts(_ context.Context, pop *engine.Population) (map[string]*contract.PiecewiseLinear, error) {
	c, err := contract.Flat(0, pop.Part.YMax(), 1)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	for i, a := range pop.Agents {
		if (i+p.round)%4 != 0 {
			out[a.ID] = c
		}
	}
	p.round++
	return out, nil
}

// gaugeRecount checks, at every round end, the engine's declined and
// excluded gauges against a recount of the round's outcomes.
type gaugeRecount struct {
	t                  *testing.T
	reg                *telemetry.Registry
	declined, excluded int // summed over the run, to prove both occur
}

func (g *gaugeRecount) OnContracts(int, map[string]*contract.PiecewiseLinear) {}
func (g *gaugeRecount) OnOutcome(int, engine.AgentOutcome)                    {}
func (g *gaugeRecount) OnRoundEnd(r engine.Round) error {
	var declined, excluded int
	for _, oc := range r.Outcomes {
		if oc.Declined {
			declined++
		}
		if oc.Excluded {
			excluded++
		}
	}
	g.declined += declined
	g.excluded += excluded
	s := g.reg.Snapshot()
	if got := s.Gauges[engine.MetricRoundDeclined]; got != float64(declined) {
		g.t.Errorf("round %d: declined gauge %v, recount %d", r.Index, got, declined)
	}
	if got := s.Gauges[engine.MetricRoundExcluded]; got != float64(excluded) {
		g.t.Errorf("round %d: excluded gauge %v, recount %d", r.Index, got, excluded)
	}
	return nil
}

// TestRoundGaugesMatchRecount pins the settle-pass tallies behind the
// declined/excluded gauges: on rounds mixing declined agents (reservation
// above the flat pay) and a rotating excluded set, each gauge equals a
// recount of the round's outcomes.
func TestRoundGaugesMatchRecount(t *testing.T) {
	pop := archetypePopulation(t, 30)
	for i, a := range pop.Agents {
		if i%5 == 0 {
			a.Reservation = 5
		}
	}
	reg := telemetry.NewRegistry()
	watch := &gaugeRecount{t: t, reg: reg}
	if _, err := engine.RunLedger(context.Background(), pop, engine.Config{
		Policy:    &churnExclusionPolicy{},
		Rounds:    4,
		Shards:    3,
		Metrics:   reg,
		Observers: []engine.Observer{watch},
	}); err != nil {
		t.Fatal(err)
	}
	if watch.declined == 0 || watch.excluded == 0 {
		t.Fatalf("run had %d declined and %d excluded outcomes; both must occur", watch.declined, watch.excluded)
	}
}
