package engine

import (
	"sync"

	"dyncontract/internal/contract"
	"dyncontract/internal/telemetry"
)

// Metric names exported by the engine, following the repo-wide
// dyncontract_<pkg>_<name> scheme (DESIGN.md § Telemetry). Stage
// histograms observe seconds; round gauges are overwritten every round
// and read as "latest round" levels.
const (
	// MetricRounds counts completed rounds.
	MetricRounds = "dyncontract_engine_rounds_total"
	// MetricOutcomes counts per-agent outcomes across all rounds.
	MetricOutcomes = "dyncontract_engine_outcomes_total"
	// MetricRoundUtility is the latest round's requester utility (Eq. 7).
	MetricRoundUtility = "dyncontract_engine_round_utility"
	// MetricRoundBenefit is the latest round's Σ w_i·q_i.
	MetricRoundBenefit = "dyncontract_engine_round_benefit"
	// MetricRoundCompensation is the latest round's total worker pay
	// (the requester's Cost).
	MetricRoundCompensation = "dyncontract_engine_round_compensation"
	// MetricRoundWorkerUtility is the latest round's summed worker
	// utility over accepting agents (only exported by instrumented
	// engines — observers cannot reconstruct it from the ledger).
	MetricRoundWorkerUtility = "dyncontract_engine_round_worker_utility"
	// MetricRoundDeclined / MetricRoundExcluded count the latest round's
	// declined and excluded agents.
	MetricRoundDeclined = "dyncontract_engine_round_declined"
	MetricRoundExcluded = "dyncontract_engine_round_excluded"
	// MetricRoundAgents is the latest round's population size.
	MetricRoundAgents = "dyncontract_engine_round_agents"

	// Per-stage timings of one engine round (histograms, seconds):
	// contract design (the Policy.Contracts call), worker best-response,
	// outcome settlement (ledger accounting), and observer dispatch.
	MetricStageDesignSeconds  = "dyncontract_engine_stage_design_seconds"
	MetricStageRespondSeconds = "dyncontract_engine_stage_respond_seconds"
	MetricStageSettleSeconds  = "dyncontract_engine_stage_settle_seconds"
	MetricStageObserveSeconds = "dyncontract_engine_stage_observe_seconds"
	// MetricRoundSeconds times the whole round.
	MetricRoundSeconds = "dyncontract_engine_round_seconds"

	// Design-cache counters, published by every Cache at engine round
	// end and at the end of every Designer.Design (Cache.publish), so a
	// registry shared by many caches — one per session or run — sums
	// them. Entries is the menus held at each live cache's last publish:
	// when Engine.Run finishes, its cache takes its share back out
	// (Cache.retire). Flushes are whole-map drops on crossing MaxEntries.
	MetricCacheHits    = "dyncontract_engine_cache_hits_total"
	MetricCacheMisses  = "dyncontract_engine_cache_misses_total"
	MetricCacheFlushes = "dyncontract_engine_cache_flushes_total"
	MetricCacheEntries = "dyncontract_engine_cache_entries"

	// Respond-memo counters, published like the design cache's at engine
	// round end. Misses count BestResponse calls the respond stage
	// actually performed; hits count distinct (fingerprint, contract) keys
	// per round served from the memo.
	MetricRespondHits    = "dyncontract_engine_respond_hits_total"
	MetricRespondMisses  = "dyncontract_engine_respond_misses_total"
	MetricRespondFlushes = "dyncontract_engine_respond_flushes_total"
	MetricRespondEntries = "dyncontract_engine_respond_entries"

	// Scoped-drift instrumentation (see DESIGN.md "Drift scopes").
	// MetricDriftTouchedAgents counts agents named by consumed
	// Population.Touch scopes; Bump and legacy Drift-hook rounds count
	// nothing here — they take the full-rebuild path.
	MetricDriftTouchedAgents = "dyncontract_engine_drift_touched_agents"
	// MetricDriftShardsRebuilt counts the scoped refreshes that touched
	// the view: a splice, or a refreshed slot. Its name is kept only
	// because perfbench reads it; the rename goes with perfbench's next
	// change (ROADMAP item 2).
	MetricDriftShardsRebuilt = "dyncontract_engine_drift_shards_rebuilt_total"
	// MetricDriftRebuildSeconds times each scoped refresh (histogram,
	// seconds) — the cost a full view rebuild was traded for.
	MetricDriftRebuildSeconds = "dyncontract_engine_drift_rebuild_seconds"
	// MetricDriftJoins / MetricDriftLeaves count agents spliced in or out
	// by consumed scopes (Population.TouchJoin / TouchLeave). A scope the
	// engine's cross-checks refute escalates to a full rebuild and counts
	// nothing in any of the touched, joins, or leaves counters.
	MetricDriftJoins  = "dyncontract_engine_drift_joins_total"
	MetricDriftLeaves = "dyncontract_engine_drift_leaves_total"
)

// Stage-timing histograms bin uniformly over [0, 250ms) in 5ms steps —
// the stats.Histogram bucket convention (out-of-range observations clamp
// into the edge bins; exact sums ride alongside, so means are not
// quantized). A warm deduplicated round sits in the first bin; a cold
// 1k-agent per-agent design round (~11ms, BENCH_engine.json) is resolved
// to its bin.
const (
	stageSecondsLo   = 0
	stageSecondsHi   = 0.25
	stageSecondsBins = 50
)

// statsMetrics names the registry metrics one cache or memo publishes.
type statsMetrics struct{ hits, misses, flushes, entries string }

var (
	cacheMetrics   = statsMetrics{MetricCacheHits, MetricCacheMisses, MetricCacheFlushes, MetricCacheEntries}
	respondMetrics = statsMetrics{MetricRespondHits, MetricRespondMisses, MetricRespondFlushes, MetricRespondEntries}
)

// published is what one cache or memo last added to a registry, so each
// publish adds only the increase since the previous one: the registry's
// counters stay monotone however many caches feed them, and a cache
// shared by an engine and a Designer is counted once. The handles are
// resolved on the first publish to a registry, as stageMetrics resolves
// its own, so a publish costs four atomic adds. A cache publishing to a
// second registry starts it at its next increase.
type published struct {
	mu                    sync.Mutex
	last                  CacheStats
	reg                   *telemetry.Registry
	hits, misses, flushes *telemetry.Counter
	entries               *telemetry.Gauge
}

// add publishes cur − last under names and makes cur the new baseline.
// The caller holds p.mu and read cur under it, so concurrent publishers
// of one cache never see the baseline run ahead of their reading.
func (p *published) add(reg *telemetry.Registry, names *statsMetrics, cur CacheStats) {
	if p.reg != reg {
		p.reg = reg
		p.hits, p.misses, p.flushes = reg.Counter(names.hits), reg.Counter(names.misses), reg.Counter(names.flushes)
		p.entries = reg.Gauge(names.entries)
	}
	p.hits.Add(cur.Hits - p.last.Hits)
	p.misses.Add(cur.Misses - p.last.Misses)
	p.flushes.Add(cur.Flushes - p.last.Flushes)
	p.entries.Add(float64(cur.Entries - p.last.Entries))
	p.last = cur
}

// retire publishes cur like add, then takes the entries it holds back out
// of the gauge: the cache or memo of a finished run holds nothing live.
// Used again, its next publish adds its whole size back.
func (p *published) retire(reg *telemetry.Registry, names *statsMetrics, cur CacheStats) {
	p.add(reg, names, cur)
	p.entries.Add(-float64(cur.Entries))
	p.last.Entries = 0
}

// stageMetrics holds the engine's pre-resolved instrument handles; one
// registry lookup per metric at construction, zero allocations per round
// afterwards.
type stageMetrics struct {
	design, respond, settle, observe, round *telemetry.Histogram
	driftRebuild                            *telemetry.Histogram
	workerUtility                           *telemetry.Gauge
	driftTouched, driftRefreshed            *telemetry.Counter
	driftJoins, driftLeaves                 *telemetry.Counter
}

func newStageMetrics(reg *telemetry.Registry) *stageMetrics {
	return &stageMetrics{
		design:         reg.Histogram(MetricStageDesignSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		respond:        reg.Histogram(MetricStageRespondSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		settle:         reg.Histogram(MetricStageSettleSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		observe:        reg.Histogram(MetricStageObserveSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		round:          reg.Histogram(MetricRoundSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		driftRebuild:   reg.Histogram(MetricDriftRebuildSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		workerUtility:  reg.Gauge(MetricRoundWorkerUtility),
		driftTouched:   reg.Counter(MetricDriftTouchedAgents),
		driftRefreshed: reg.Counter(MetricDriftShardsRebuilt),
		driftJoins:     reg.Counter(MetricDriftJoins),
		driftLeaves:    reg.Counter(MetricDriftLeaves),
	}
}

// MetricsUser is implemented by policies that can route their internals
// (e.g. the solver fan-out) through a telemetry registry. Engine wires
// Config.Metrics into the policy at construction when implemented,
// mirroring CacheUser.
type MetricsUser interface {
	UseMetrics(*telemetry.Registry)
}

// telemetryObserver exports the round ledger into a registry; see
// TelemetryObserver.
type telemetryObserver struct {
	rounds, outcomes               *telemetry.Counter
	utility, benefit, compensation *telemetry.Gauge
	declined, excluded, agents     *telemetry.Gauge
}

// TelemetryObserver returns a ready-made Observer that exports per-round
// ledger metrics (requester utility/benefit/compensation gauges,
// declined/excluded counts, rounds and outcomes totals) into reg. Stack
// it alongside your own observers when you control only the observer
// list; engines constructed with Config.Metrics set export the same
// metrics directly, so do not also stack it there — the round counters
// would double. It never mutates the round and never returns an error,
// so stacking it cannot alter a run's ledger or termination.
func TelemetryObserver(reg *telemetry.Registry) Observer {
	return newTelemetryObserver(reg)
}

func newTelemetryObserver(reg *telemetry.Registry) *telemetryObserver {
	return &telemetryObserver{
		rounds:       reg.Counter(MetricRounds),
		outcomes:     reg.Counter(MetricOutcomes),
		utility:      reg.Gauge(MetricRoundUtility),
		benefit:      reg.Gauge(MetricRoundBenefit),
		compensation: reg.Gauge(MetricRoundCompensation),
		declined:     reg.Gauge(MetricRoundDeclined),
		excluded:     reg.Gauge(MetricRoundExcluded),
		agents:       reg.Gauge(MetricRoundAgents),
	}
}

// WantsContracts implements ContractsWanter: the export reads outcomes
// only.
func (t *telemetryObserver) WantsContracts(int) bool { return false }

// OnContracts implements Observer.
func (t *telemetryObserver) OnContracts(int, map[string]*contract.PiecewiseLinear) {}

// OnOutcome implements Observer.
func (t *telemetryObserver) OnOutcome(int, AgentOutcome) {}

// OnRoundEnd implements Observer. A stacked observer sees only the
// round, so it counts the declined and excluded outcomes itself; an
// engine's own export takes them from the settle pass (record).
func (t *telemetryObserver) OnRoundEnd(round Round) error {
	var declined, excluded int
	for i := range round.Outcomes {
		if round.Outcomes[i].Declined {
			declined++
		}
		if round.Outcomes[i].Excluded {
			excluded++
		}
	}
	t.record(round, declined, excluded)
	return nil
}

// record exports one round's ledger metrics.
func (t *telemetryObserver) record(round Round, declined, excluded int) {
	t.rounds.Inc()
	t.outcomes.Add(uint64(len(round.Outcomes)))
	t.utility.Set(round.Utility)
	t.benefit.Set(round.Benefit)
	t.compensation.Set(round.Cost)
	t.declined.Set(float64(declined))
	t.excluded.Set(float64(excluded))
	t.agents.Set(float64(len(round.Outcomes)))
}
