package engine

import (
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

	// Design-cache counters (adopted from Cache via ExportTo; Stats()
	// remains a thin view over the same counters).
	MetricCacheHits    = "dyncontract_engine_cache_hits_total"
	MetricCacheMisses  = "dyncontract_engine_cache_misses_total"
	MetricCacheEntries = "dyncontract_engine_cache_entries"

	// Respond-memo counters (adopted from RespondMemo via ExportTo,
	// mirroring the design cache's wiring). Misses count BestResponse
	// calls the respond stage actually performed; hits count distinct
	// (fingerprint, contract) keys per round served from the memo.
	MetricRespondHits    = "dyncontract_engine_respond_hits_total"
	MetricRespondMisses  = "dyncontract_engine_respond_misses_total"
	MetricRespondEntries = "dyncontract_engine_respond_entries"

	// MetricShards is the round pipeline's current shard count — the
	// effective value after clamping Config.Shards to the population size
	// (1 when Config.Shards is 0).
	MetricShards = "dyncontract_engine_shards"
	// Per-shard stage timings (histograms, seconds): the pipeline
	// observes one design and one executed respond duration per shard per
	// round, so shard counts multiply the observation rate of the
	// corresponding whole-stage histograms. Warm rounds skip shard respond
	// entirely, which shows up as a shard-respond count below
	// shards × rounds.
	MetricShardDesignSeconds  = "dyncontract_engine_shard_design_seconds"
	MetricShardRespondSeconds = "dyncontract_engine_shard_respond_seconds"

	// Scoped-drift instrumentation (see DESIGN.md "Drift scopes").
	// MetricDriftTouchedAgents counts agents named by consumed
	// Population.Touch scopes; Bump and legacy Drift-hook rounds count
	// nothing here — they take the full-rebuild path.
	MetricDriftTouchedAgents = "dyncontract_engine_drift_touched_agents"
	// MetricDriftShardsRebuilt / MetricDriftShardsSkipped count, per
	// scoped refresh, the shards that owned a declared ID (views
	// refreshed or spliced) vs the shards left on their warm path.
	MetricDriftShardsRebuilt = "dyncontract_engine_drift_shards_rebuilt_total"
	MetricDriftShardsSkipped = "dyncontract_engine_drift_shards_skipped_total"
	// MetricDriftRebuildSeconds times each scoped refresh (histogram,
	// seconds) — the cost a full view rebuild was traded for.
	MetricDriftRebuildSeconds = "dyncontract_engine_drift_rebuild_seconds"
	// MetricDriftJoins / MetricDriftLeaves count agents spliced in or out
	// by consumed scopes (Population.TouchJoin / TouchLeave). A scope the
	// engine's cross-checks refute escalates to a full rebuild and counts
	// nothing in any of the touched, joins, or leaves counters.
	MetricDriftJoins  = "dyncontract_engine_drift_joins_total"
	MetricDriftLeaves = "dyncontract_engine_drift_leaves_total"
	// MetricDriftCompactions counts deferred outcome-slot compactions —
	// the batched renumbering that folds accumulated leave tombstones
	// back into the identity slot mapping (engine.compact span).
	MetricDriftCompactions = "dyncontract_engine_drift_compactions_total"
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

// stageMetrics holds the engine's pre-resolved instrument handles; one
// registry lookup per metric at construction, zero allocations per round
// afterwards.
type stageMetrics struct {
	design, respond, settle, observe, round *telemetry.Histogram
	shardDesign, shardRespond               *telemetry.Histogram
	driftRebuild                            *telemetry.Histogram
	workerUtility, shards                   *telemetry.Gauge
	driftTouched                            *telemetry.Counter
	driftShardsRebuilt, driftShardsSkipped  *telemetry.Counter
	driftJoins, driftLeaves                 *telemetry.Counter
	driftCompactions                        *telemetry.Counter
}

func newStageMetrics(reg *telemetry.Registry) *stageMetrics {
	return &stageMetrics{
		design:             reg.Histogram(MetricStageDesignSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		respond:            reg.Histogram(MetricStageRespondSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		settle:             reg.Histogram(MetricStageSettleSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		observe:            reg.Histogram(MetricStageObserveSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		round:              reg.Histogram(MetricRoundSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		shardDesign:        reg.Histogram(MetricShardDesignSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		shardRespond:       reg.Histogram(MetricShardRespondSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		driftRebuild:       reg.Histogram(MetricDriftRebuildSeconds, stageSecondsLo, stageSecondsHi, stageSecondsBins),
		workerUtility:      reg.Gauge(MetricRoundWorkerUtility),
		shards:             reg.Gauge(MetricShards),
		driftTouched:       reg.Counter(MetricDriftTouchedAgents),
		driftShardsRebuilt: reg.Counter(MetricDriftShardsRebuilt),
		driftShardsSkipped: reg.Counter(MetricDriftShardsSkipped),
		driftJoins:         reg.Counter(MetricDriftJoins),
		driftLeaves:        reg.Counter(MetricDriftLeaves),
		driftCompactions:   reg.Counter(MetricDriftCompactions),
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
