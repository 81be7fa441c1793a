package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
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

// TestCachePublish pins the round-end publish: after a run, the registry
// counters equal the cache's own Stats(), and the entries gauge reads 0
// because the finished run's cache retired.
func TestCachePublish(t *testing.T) {
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
	want := stats
	want.Entries = 0
	if got := registryCacheStats(reg.Snapshot()); got != want {
		t.Errorf("registry reads %+v, want %+v", got, want)
	}
}

// registryCacheStats reads the published MetricCache* values back.
func registryCacheStats(s telemetry.Snapshot) engine.CacheStats {
	return engine.CacheStats{
		Hits:    s.Counters[engine.MetricCacheHits],
		Misses:  s.Counters[engine.MetricCacheMisses],
		Flushes: s.Counters[engine.MetricCacheFlushes],
		Entries: int(s.Gauges[engine.MetricCacheEntries]),
	}
}

// registryRespondStats reads the published MetricRespond* values back.
func registryRespondStats(s telemetry.Snapshot) engine.RespondStats {
	return engine.RespondStats{
		Hits:    s.Counters[engine.MetricRespondHits],
		Misses:  s.Counters[engine.MetricRespondMisses],
		Flushes: s.Counters[engine.MetricRespondFlushes],
		Entries: int(s.Gauges[engine.MetricRespondEntries]),
	}
}

// TestPublishSumsRunsAndCountsSharedCacheOnce is the regression test for
// registry counters that used to follow only the newest cache (and so
// went backwards, printing 2^64-scale deltas): runs sharing a registry
// must sum their counters (their entries retire with each run), and a
// cache shared by an engine and a Designer — as every server session
// shares one — must count each hit once.
func TestPublishSumsRunsAndCountsSharedCacheOnce(t *testing.T) {
	ctx := context.Background()
	t.Run("fresh cache per run", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		var cacheSum engine.CacheStats
		var memoSum engine.RespondStats
		for run, rounds := range []int{3, 2} {
			cache, memo := engine.NewCache(), engine.NewRespondMemo()
			_, err := engine.RunLedger(ctx, archetypePopulation(t, 12+run*9), engine.Config{
				Policy: &designPolicy{}, Rounds: rounds, Cache: cache, Memo: memo, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			cs, ms := cache.Stats(), memo.Stats()
			cacheSum.Hits += cs.Hits
			cacheSum.Misses += cs.Misses
			memoSum.Hits += ms.Hits
			memoSum.Misses += ms.Misses
		}
		s := reg.Snapshot()
		if got := registryCacheStats(s); got != cacheSum {
			t.Errorf("cache: registry %+v, sum of runs %+v", got, cacheSum)
		}
		if got := registryRespondStats(s); got != memoSum {
			t.Errorf("memo: registry %+v, sum of runs %+v", got, memoSum)
		}
	})
	t.Run("cache shared by engine and designer", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		cache := engine.NewCache()
		pop := archetypePopulation(t, 9)
		eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 1, Cache: cache, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		d := &engine.Designer{Cache: cache, Metrics: reg}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 5; j++ {
					for k, w := range []float64{1, 2} {
						if _, err := d.Design(ctx, pop.Part, pop.Mu, pop.Agents[k], w); err != nil {
							t.Error(err)
						}
					}
				}
			}()
		}
		for r := 0; r < 3; r++ {
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		stats := cache.Stats()
		if stats.Hits < 4*5*2-3 {
			t.Fatalf("design queries barely hit the cache: %+v", stats)
		}
		if got := registryCacheStats(reg.Snapshot()); got != stats {
			t.Errorf("registry %+v, cache counted %+v", got, stats)
		}
	})
}

// TestRunRetiresEntries pins the _entries gauges as live totals: each of
// two sequential RunLedger runs on one registry, with its own cache and
// memo, shows its entries on the gauges while it runs and takes them back
// out when it finishes, while the hit and miss counters keep summing. An
// engine driven by Step, as a server session is, never finishes and keeps
// its share.
func TestRunRetiresEntries(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	var hits uint64
	for run := 0; run < 2; run++ {
		cache, memo := engine.NewCache(), engine.NewRespondMemo()
		var during []float64
		watch := &roundEndHook{fn: func() {
			s := reg.Snapshot()
			during = append(during, s.Gauges[engine.MetricCacheEntries], s.Gauges[engine.MetricRespondEntries])
		}}
		_, err := engine.RunLedger(ctx, archetypePopulation(t, 12+9*run), engine.Config{
			Policy: &designPolicy{}, Rounds: 2, Cache: cache, Memo: memo, Metrics: reg,
			Observers: []engine.Observer{watch},
		})
		if err != nil {
			t.Fatal(err)
		}
		cs, ms := cache.Stats(), memo.Stats()
		if cs.Entries == 0 || ms.Entries == 0 {
			t.Fatalf("run %d: cache %+v and memo %+v must hold entries", run, cs, ms)
		}
		last := during[len(during)-2:]
		if last[0] != float64(cs.Entries) || last[1] != float64(ms.Entries) {
			t.Errorf("run %d: gauges read %v in its last round, want its cache's %d and memo's %d entries", run, last, cs.Entries, ms.Entries)
		}
		hits += cs.Hits
		s := reg.Snapshot()
		if c, m := s.Gauges[engine.MetricCacheEntries], s.Gauges[engine.MetricRespondEntries]; c != 0 || m != 0 {
			t.Errorf("after run %d: entries gauges read %v and %v, want 0 and 0", run, c, m)
		}
		if got := s.Counters[engine.MetricCacheHits]; got != hits {
			t.Errorf("after run %d: %s = %d, want the runs' sum %d", run, engine.MetricCacheHits, got, hits)
		}
	}

	cache := engine.NewCache()
	eng, err := engine.New(archetypePopulation(t, 9), engine.Config{Policy: &designPolicy{}, Rounds: 1, Cache: cache, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := eng.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := reg.Snapshot().Gauges[engine.MetricCacheEntries], float64(cache.Stats().Entries); got != want || want == 0 {
		t.Errorf("a stepped engine's cache: gauge %v, want its %v entries", got, want)
	}
}

// roundEndHook calls fn at every round end.
type roundEndHook struct{ fn func() }

func (h *roundEndHook) OnContracts(int, map[string]*contract.PiecewiseLinear) {}
func (h *roundEndHook) OnRoundEnd(engine.Round) error                         { h.fn(); return nil }

// TestCapFlushPublished pins the cap-flush counters: a cache and a memo
// capped at 3 entries cross the cap once when a β drift mints 3 fresh
// design keys over 3 live ones, and the registry reads exactly 1 of each.
func TestCapFlushPublished(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache := &engine.Cache{MaxEntries: 3}
	memo := &engine.RespondMemo{MaxEntries: 3}
	drift := func(round int, pop *engine.Population) {
		if round == 1 {
			for _, a := range pop.Agents {
				a.Beta *= 1.1
			}
		}
	}
	_, err := engine.RunLedger(context.Background(), archetypePopulation(t, 9), engine.Config{
		Policy: &designPolicy{}, Rounds: 2, Drift: drift, Cache: cache, Memo: memo, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.Stats().Flushes; got != 1 {
		t.Errorf("cache flushes = %d, want 1", got)
	}
	if got := memo.Stats().Flushes; got != 1 {
		t.Errorf("memo flushes = %d, want 1", got)
	}
	s := reg.Snapshot()
	for _, name := range []string{engine.MetricCacheFlushes, engine.MetricRespondFlushes} {
		if got := s.Counters[name]; got != 1 {
			t.Errorf("%s = %d, want 1", name, got)
		}
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
		Metrics:   reg,
		Observers: []engine.Observer{watch},
	}); err != nil {
		t.Fatal(err)
	}
	if watch.declined == 0 || watch.excluded == 0 {
		t.Fatalf("run had %d declined and %d excluded outcomes; both must occur", watch.declined, watch.excluded)
	}
}
