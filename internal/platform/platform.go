// Package platform simulates the repeated crowdsourcing marketplace of
// §II: a requester posts per-worker contracts each round, workers (honest,
// malicious, and collusive communities acting as meta-workers) best-respond
// with effort levels, feedback realizes, and the requester's utility
// accrues round by round.
//
// The round loop itself lives in internal/engine; this package is the
// classic ledger-returning adapter over it, kept as the stable entry point
// for examples, experiments, and tests. Pricing strategies are pluggable
// through the Policy interface; the paper's dynamic contract design is
// DynamicPolicy, and the comparison baselines of Fig. 8(c) live in
// internal/baseline.
package platform

import (
	"context"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// ErrBadPopulation is returned when a population fails validation.
var ErrBadPopulation = engine.ErrBadPopulation

// Core marketplace types are defined in internal/engine; the aliases keep
// every existing caller (and the Policy implementations spread across
// internal/baseline, internal/budget, internal/adversary, …) compiling
// unchanged while the engine owns the loop.
type (
	// Population is the fixed cast of a simulation.
	Population = engine.Population
	// Policy produces one round's contracts.
	Policy = engine.Policy
	// AgentOutcome is one agent's realized round outcome.
	AgentOutcome = engine.AgentOutcome
	// Round aggregates one simulated round.
	Round = engine.Round
)

// Options tunes the simulation.
type Options struct {
	// Drift, when non-nil, runs before each round and may mutate the
	// population (behaviour drift, weight re-estimation, …).
	Drift func(round int, pop *Population)
	// Responder, when non-nil, chooses each agent's effort for the round
	// instead of the exact myopic best response — the hook strategic
	// adversaries (internal/adversary) plug into. The returned effort is
	// clamped to [0, min(mδ, apex)].
	Responder func(round int, a *worker.Agent, c *contract.PiecewiseLinear, part effort.Partition) (float64, error)
	// Observer, when non-nil, receives each completed round before the
	// next begins (for online reputation tracking).
	Observer func(round Round)
	// Metrics, when non-nil, instruments the underlying engine run
	// (per-stage timings, per-round ledger gauges; see engine.Config).
	// telemetry.Nop disables collection; the ledger is identical either
	// way.
	Metrics *telemetry.Registry
}

// Simulate runs the marketplace for the given number of rounds under the
// policy and returns the per-round ledger. It is a thin adapter over
// engine.RunLedger; callers that want streaming events, early stopping, or
// an explicit design cache should use internal/engine directly.
func Simulate(ctx context.Context, pop *Population, pol Policy, rounds int, opts Options) ([]Round, error) {
	cfg := engine.Config{
		Policy:    pol,
		Rounds:    rounds,
		Drift:     opts.Drift,
		Responder: engine.Responder(opts.Responder),
		Metrics:   opts.Metrics,
	}
	if opts.Observer != nil {
		observer := opts.Observer
		cfg.Observers = []engine.Observer{engine.Hooks{
			RoundEnd: func(round Round) error {
				observer(round)
				return nil
			},
		}}
	}
	return engine.RunLedger(ctx, pop, cfg)
}

// TotalUtility sums the requester's utility over a ledger. Nil and empty
// ledgers total 0, and non-finite round utilities are skipped, so the
// total is always NaN-free.
func TotalUtility(ledger []Round) float64 {
	return engine.TotalUtility(ledger)
}

// DynamicPolicy is the paper's strategy: each round it designs a
// near-optimal contract per agent with core.Design, solving the decomposed
// subproblems in parallel. Agents sharing a design fingerprint share one
// solve (engine.Designer), and attaching a cache (UseCache, or
// engine.Config.Cache) makes repeated rounds on a stable population nearly
// free.
type DynamicPolicy struct {
	// Parallelism caps the solver pool of direct Contracts calls; 0 means
	// GOMAXPROCS. An engine designs through ShardContracts instead, which
	// fans cold menus out across GOMAXPROCS.
	Parallelism int

	designer engine.Designer
}

var (
	_ Policy                       = (*DynamicPolicy)(nil)
	_ engine.ShardPolicy           = (*DynamicPolicy)(nil)
	_ engine.FingerprintPurePolicy = (*DynamicPolicy)(nil)
	_ engine.CacheUser             = (*DynamicPolicy)(nil)
	_ engine.MetricsUser           = (*DynamicPolicy)(nil)
	_ engine.BatchReporter         = (*DynamicPolicy)(nil)
)

// Name implements Policy.
func (p *DynamicPolicy) Name() string { return "dynamic-contract" }

// UseCache implements engine.CacheUser: subsequent rounds dedup designs
// against the cache.
func (p *DynamicPolicy) UseCache(c *engine.Cache) { p.designer.Cache = c }

// UseMetrics implements engine.MetricsUser: the designer forwards the
// registry to the solver fan-out (dyncontract_solver_* metrics).
func (p *DynamicPolicy) UseMetrics(reg *telemetry.Registry) { p.designer.Metrics = reg }

// Contracts implements Policy.
func (p *DynamicPolicy) Contracts(ctx context.Context, pop *Population) (map[string]*contract.PiecewiseLinear, error) {
	p.designer.Parallelism = p.Parallelism
	return p.designer.Contracts(ctx, pop, pop.Agents)
}

// ShardContracts implements engine.ShardPolicy: the engine's view designs
// through the designer's engine.ShardDesigner against the design cache,
// and a warm view — same epoch, same cached designs — reports
// changed = false so the engine can skip its respond stage entirely.
func (p *DynamicPolicy) ShardContracts(ctx context.Context, pop *Population, sh *engine.Shard, dst []*contract.PiecewiseLinear) (bool, error) {
	return p.designer.Shard().Contracts(ctx, pop, sh, dst)
}

// FingerprintPure implements engine.FingerprintPurePolicy: every contract
// this policy serves is resolved purely through the agent's design
// fingerprint (engine.Designer dedups and caches by fingerprint), so the
// engine may patch sparsely drifted agents straight from the design
// cache instead of re-planning the whole view.
func (p *DynamicPolicy) FingerprintPure() {}

// BatchStats implements engine.BatchReporter: the size of the designer's
// last design batch (distinct cache-missing design keys; 0 on a warm
// round) and the cumulative use count of its retained solve scratch.
func (p *DynamicPolicy) BatchStats() (int, uint64) {
	return p.designer.Shard().BatchStats()
}
