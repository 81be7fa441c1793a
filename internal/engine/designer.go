package engine

import (
	"context"
	"fmt"
	"sync"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/solver"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// Designer turns a set of agents into per-agent contracts through the
// deduplicating cache and the parallel solver fan-out.
//
// Within one call, agents sharing a fingerprint are designed once (the
// round-level dedup is unconditional — it is pure, deterministic sharing).
// With a Cache attached, distinct fingerprints that were designed in a
// previous round cost nothing. Scratch buffers — the solver fan-out
// inputs, the per-agent fingerprints, and both result maps, including the
// returned contracts map — are retained across calls, so a long-running
// loop stops allocating per-round.
//
// The zero value is ready to use. A Designer is safe for concurrent use,
// but calls are serialized and the returned map is reused by the next
// call — never share a Designer across concurrently running simulations;
// share a Cache instead.
type Designer struct {
	// Parallelism caps the solver pool; 0 means GOMAXPROCS.
	Parallelism int
	// Cache, when non-nil, carries designs across rounds.
	Cache *Cache
	// Metrics, when non-nil, is forwarded to the solver fan-out
	// (dyncontract_solver_* counters and per-design timings).
	Metrics *telemetry.Registry

	mu        sync.Mutex
	subs      []solver.Subproblem
	subFPs    []Fingerprint
	agentFPs  []Fingerprint
	outs      []solver.Outcome
	results   map[Fingerprint]*core.Result
	contracts map[string]*contract.PiecewiseLinear
	roundFPs  []Fingerprint
	roundRes  []*core.Result
	shards    []*ShardDesigner // lazily built per-shard designers (Shard)
}

// maxScanFPs bounds the round's linear-scan fingerprint list: populations
// built from a handful of archetypes (the common case) resolve every
// agent with a few struct compares instead of hashing the full
// Fingerprint into a map; rounds with more distinct fingerprints fall
// back to the map beyond this bound.
const maxScanFPs = 16

// findFP returns fp's index in the round's distinct-fingerprint list, or
// -1. The list never exceeds maxScanFPs entries.
func (d *Designer) findFP(fp Fingerprint) int {
	for j := range d.roundFPs {
		if d.roundFPs[j] == fp {
			return j
		}
	}
	return -1
}

// Contracts designs one contract per agent, deduplicating by fingerprint.
// Agents not in the population's weight map design with w = 0 (matching
// the zero-value semantics of map lookups used throughout).
//
// The returned map is valid until the next Contracts call on the same
// Designer — the engine hands it to observers under the same rule.
func (d *Designer) Contracts(ctx context.Context, pop *Population, agents []*worker.Agent) (map[string]*contract.PiecewiseLinear, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	if d.results == nil {
		d.results = make(map[Fingerprint]*core.Result, 8)
	} else {
		clear(d.results)
	}
	d.subs = d.subs[:0]
	d.subFPs = d.subFPs[:0]
	// Fingerprint hashing is per-agent per-round work on the design path:
	// compute each agent's fingerprint exactly once and reuse it in the
	// assembly loop below.
	d.agentFPs = d.agentFPs[:0]
	d.roundFPs = d.roundFPs[:0]
	for _, a := range agents {
		cfg := core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]}
		fp := FingerprintOf(a, cfg)
		d.agentFPs = append(d.agentFPs, fp)
		if d.findFP(fp) >= 0 {
			continue // already handled this round
		}
		if len(d.roundFPs) < maxScanFPs {
			d.roundFPs = append(d.roundFPs, fp)
		} else if _, seen := d.results[fp]; seen {
			continue // beyond the scan bound: dedup through the map
		}
		if d.Cache != nil {
			if res, ok := d.Cache.Get(fp); ok {
				d.results[fp] = res
				continue
			}
		}
		d.results[fp] = nil // pending: solved below
		d.subs = append(d.subs, solver.Subproblem{Agent: a, Config: cfg})
		d.subFPs = append(d.subFPs, fp)
	}

	if len(d.subs) > 0 {
		if cap(d.outs) < len(d.subs) {
			d.outs = make([]solver.Outcome, len(d.subs))
		}
		d.outs = d.outs[:len(d.subs)]
		if err := solver.SolveAllInto(ctx, d.subs, d.outs, solver.Options{Parallelism: d.Parallelism, Metrics: d.Metrics}); err != nil {
			return nil, err
		}
		for i := range d.subs {
			d.results[d.subFPs[i]] = d.outs[i].Result
			if d.Cache != nil {
				d.Cache.Put(d.subFPs[i], d.outs[i].Result)
			}
		}
	}

	if d.contracts == nil {
		d.contracts = make(map[string]*contract.PiecewiseLinear, len(agents))
	} else {
		clear(d.contracts)
	}
	// Resolve the scan list's results once (a handful of map lookups),
	// then assemble per agent through the scan list, falling back to the
	// map only for fingerprints beyond the scan bound.
	d.roundRes = d.roundRes[:0]
	for _, fp := range d.roundFPs {
		d.roundRes = append(d.roundRes, d.results[fp])
	}
	for i, a := range agents {
		fp := d.agentFPs[i]
		var res *core.Result
		if j := d.findFP(fp); j >= 0 {
			res = d.roundRes[j]
		} else {
			res = d.results[fp]
		}
		if res == nil {
			return nil, fmt.Errorf("engine: no design produced for agent %s", a.ID)
		}
		d.contracts[a.ID] = res.Contract
	}
	return d.contracts, nil
}

// DesignRequest is one design-only query for DesignBatch: an agent (not
// necessarily a member of any population) plus the requester-side feedback
// weight to design for.
type DesignRequest struct {
	// Agent carries the behavioural parameters the design reads (class,
	// ψ, β, ω, reservation). It is not retained past the call.
	Agent *worker.Agent
	// W is the requester's feedback weight w for this query.
	W float64
}

// DesignBatch designs one contract per request against the given partition
// and compensation weight — the batch entry point for serving layers that
// coalesce concurrent design-only queries into a single engine pass.
// Requests sharing a fingerprint within the batch share one solve, and the
// designer's Cache (when set) carries designs across batches and across a
// concurrently running round loop wired to the same cache, so a warm query
// costs one cache lookup and zero solver calls.
//
// Unlike Contracts, DesignBatch touches none of the designer's per-round
// scratch and allocates its results fresh, so concurrent DesignBatch calls
// are safe with each other and with Contracts, provided Parallelism,
// Cache, and Metrics are not mutated concurrently. The returned slice is
// index-aligned with reqs.
func (d *Designer) DesignBatch(ctx context.Context, part effort.Partition, mu float64, reqs []DesignRequest) ([]*contract.PiecewiseLinear, error) {
	fps := make([]Fingerprint, len(reqs))
	results := make(map[Fingerprint]*core.Result, len(reqs))
	var subs []solver.Subproblem
	var subFPs []Fingerprint
	for i, rq := range reqs {
		cfg := core.Config{Part: part, Mu: mu, W: rq.W}
		fp := FingerprintOf(rq.Agent, cfg)
		fps[i] = fp
		if _, seen := results[fp]; seen {
			continue
		}
		if d.Cache != nil {
			if res, ok := d.Cache.Get(fp); ok {
				results[fp] = res
				continue
			}
		}
		results[fp] = nil // pending: solved below
		subs = append(subs, solver.Subproblem{Agent: rq.Agent, Config: cfg})
		subFPs = append(subFPs, fp)
	}
	if len(subs) > 0 {
		outs := make([]solver.Outcome, len(subs))
		if err := solver.SolveAllInto(ctx, subs, outs, solver.Options{Parallelism: d.Parallelism, Metrics: d.Metrics}); err != nil {
			return nil, err
		}
		for i := range subs {
			results[subFPs[i]] = outs[i].Result
			if d.Cache != nil {
				d.Cache.Put(subFPs[i], outs[i].Result)
			}
		}
	}
	out := make([]*contract.PiecewiseLinear, len(reqs))
	for i := range reqs {
		res := results[fps[i]]
		if res == nil {
			return nil, fmt.Errorf("engine: no design produced for agent %s", reqs[i].Agent.ID)
		}
		out[i] = res.Contract
	}
	return out, nil
}

// Shard returns the designer for shard i, creating it on first use. Each
// ShardDesigner is single-owner (the engine calls one shard from one
// goroutine at a time) and shares the Designer's Cache through its own
// lock-free segment, so concurrent shards dedup cross-shard archetypes
// without contending on a lock in the warm path.
func (d *Designer) Shard(i int) *ShardDesigner {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.shards) <= i {
		d.shards = append(d.shards, nil)
	}
	if d.shards[i] == nil {
		sd := &ShardDesigner{metrics: d.Metrics}
		if d.Cache != nil {
			sd.seg = d.Cache.Segment()
		}
		d.shards[i] = sd
	}
	return d.shards[i]
}

// ShardDesigner designs contracts for one shard of a sharded engine run.
// It retains a per-epoch plan — the shard's distinct fingerprints and
// each agent's slot into them, computed from the Shard's cached FPs — so
// a warm round costs one cache-segment lookup per distinct fingerprint to
// validate that the served contracts are still current, and reports
// changed = false without touching dst. Scratch is retained across
// rounds; steady-state calls allocate nothing.
type ShardDesigner struct {
	metrics *telemetry.Registry
	seg     *CacheSegment // nil without a Cache: every round redesigns

	built    bool
	shard    int
	epoch    uint64
	slots    []int32 // per agent: index into distinct
	distinct []Fingerprint
	reps     []*worker.Agent // representative agent per distinct fingerprint
	res      []*core.Result  // resolved result per distinct fingerprint
	served   []*contract.PiecewiseLinear
	keys     map[Fingerprint]int32
	subs     []solver.Subproblem
	souts    []solver.Outcome
	pendIdx  []int32

	// scratch is the shard's retained design scratch: the sequential
	// solver route (every fill of a non-solo shard) runs its cold designs
	// over it, so a shard's cold fills stay CPU-local (same owner
	// goroutine, same buffers) round after round. lastBatch records the
	// most recent fill's solver batch size for span annotation
	// (BatchStats).
	scratch   core.Scratch
	lastBatch int
}

// BatchStats reports the size of the most recent fill's solver batch
// (the shard's distinct fingerprints that missed the cache) and the
// cumulative number of designs the shard's retained scratch has served —
// the numbers engine.shard.design spans carry via ShardBatchReporter.
func (d *ShardDesigner) BatchStats() (batch int, scratchUses uint64) {
	return d.lastBatch, d.scratch.Uses()
}

// Contracts implements the ShardPolicy work for one shard: fill dst[i]
// with the contract for sh.Agents[i], reporting whether anything changed
// since the previous call for this (shard, epoch).
func (d *ShardDesigner) Contracts(ctx context.Context, pop *Population, sh *Shard, dst []*contract.PiecewiseLinear) (bool, error) {
	if len(dst) != len(sh.Agents) {
		return false, fmt.Errorf("engine: shard %d: %d contract slots for %d agents", sh.Index, len(dst), len(sh.Agents))
	}
	replan := !d.built || d.shard != sh.Index || d.epoch != sh.Epoch
	if !replan && d.seg != nil {
		// Warm validation: the plan is current (same view epoch); the
		// round is unchanged iff every distinct fingerprint still resolves
		// to the contract dst already holds. The lookups count as hits only
		// when the whole plan validates; otherwise fill counts each
		// distinct fingerprint once, so CacheStats.Misses stays the number
		// of Design calls.
		same := true
		for k := range d.distinct {
			res, ok := d.seg.peek(d.distinct[k])
			if !ok || res.Contract != d.served[k] {
				same = false
				break
			}
		}
		if same {
			d.seg.parent.hits.Add(uint64(len(d.distinct)))
			return false, nil
		}
		// A failed validation under a matching epoch can mean the engine
		// patched fingerprint slots in place (sparse drift) since the
		// plan was built — the plan's slot/fingerprint layout may be
		// stale, so rebuild it from the shard's current FPs before
		// refilling.
		replan = true
	}
	if replan {
		d.plan(sh)
		d.built = true
		d.shard = sh.Index
		d.epoch = sh.Epoch
	}
	if err := d.fill(ctx, pop, sh, dst); err != nil {
		// served is now inconsistent with dst; force a full refill next
		// round rather than trusting a warm validation.
		d.built = false
		return true, err
	}
	return true, nil
}

// plan rebuilds the shard's dedup plan from its cached fingerprints.
func (d *ShardDesigner) plan(sh *Shard) {
	if d.keys == nil {
		d.keys = make(map[Fingerprint]int32, 16)
	} else {
		clear(d.keys)
	}
	d.slots = d.slots[:0]
	d.distinct = d.distinct[:0]
	d.reps = d.reps[:0]
	// Agents are ID-sorted, so archetypes are contiguous: a struct compare
	// against the previous fingerprint skips the map for entire runs.
	var lastFP Fingerprint
	lastSlot := int32(-1)
	for i := range sh.Agents {
		fp := sh.FPs[i]
		if lastSlot >= 0 && fp == lastFP {
			d.slots = append(d.slots, lastSlot)
			continue
		}
		k, seen := d.keys[fp]
		if !seen {
			k = int32(len(d.distinct))
			d.keys[fp] = k
			d.distinct = append(d.distinct, fp)
			d.reps = append(d.reps, sh.Agents[i])
		}
		lastFP, lastSlot = fp, k
		d.slots = append(d.slots, k)
	}
}

// fill resolves every distinct fingerprint — cache segment first, solver
// for the misses — and writes the shard's contracts through the plan.
func (d *ShardDesigner) fill(ctx context.Context, pop *Population, sh *Shard, dst []*contract.PiecewiseLinear) error {
	nd := len(d.distinct)
	if cap(d.res) < nd {
		d.res = make([]*core.Result, nd)
	}
	d.res = d.res[:nd]
	if cap(d.served) < nd {
		d.served = make([]*contract.PiecewiseLinear, nd)
	}
	d.served = d.served[:nd]
	d.subs = d.subs[:0]
	d.pendIdx = d.pendIdx[:0]
	for k := 0; k < nd; k++ {
		if d.seg != nil {
			if res, ok := d.seg.Get(d.distinct[k]); ok {
				d.res[k] = res
				continue
			}
		}
		d.res[k] = nil
		d.pendIdx = append(d.pendIdx, int32(k))
		d.subs = append(d.subs, solver.Subproblem{
			Agent:  d.reps[k],
			Config: core.Config{Part: pop.Part, Mu: pop.Mu, W: d.distinct[k].W},
		})
	}
	d.lastBatch = len(d.subs)
	if len(d.subs) > 0 {
		if cap(d.souts) < len(d.subs) {
			d.souts = make([]solver.Outcome, len(d.subs))
		}
		d.souts = d.souts[:len(d.subs)]
		// Under several shards, parallelism comes from the engine's pool;
		// the inner solve stays sequential — over the shard's retained
		// scratch — so shards never oversubscribe it and cold designs reuse
		// CPU-local buffers. A lone shard has no pool above it, so its
		// solve fans out across GOMAXPROCS (on pooled scratch).
		par := 1
		if sh.Solo {
			par = 0
		}
		if err := solver.SolveAllInto(ctx, d.subs, d.souts, solver.Options{Parallelism: par, Metrics: d.metrics, Scratch: &d.scratch}); err != nil {
			return err
		}
		for j, k := range d.pendIdx {
			res := d.souts[j].Result
			if res == nil {
				return fmt.Errorf("engine: no design produced for agent %s", d.subs[j].Agent.ID)
			}
			d.res[k] = res
			if d.seg != nil {
				d.seg.Put(d.distinct[k], res)
			}
		}
	}
	for k := 0; k < nd; k++ {
		d.served[k] = d.res[k].Contract
	}
	for i := range sh.Agents {
		dst[i] = d.res[d.slots[i]].Contract
	}
	return nil
}
