package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/solver"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// Designer turns a set of agents into per-agent contracts through the
// deduplicating menu cache and the parallel solver fan-out.
//
// Within one call, agents are deduplicated two levels deep: agents
// sharing a design key share one menu (one §IV-C solve), and agents
// sharing a whole fingerprint share one Eq. (43) pick. The round-level
// dedup is unconditional — it is pure, deterministic sharing. With a
// Cache attached, menus built in a previous round cost nothing, whatever
// the weights picked from them. Scratch buffers — the plan, the solver
// fan-out inputs, and the returned contracts map — are retained across
// calls, so a long-running loop stops allocating per round.
//
// The zero value is ready to use. A Designer is safe for concurrent use,
// but calls are serialized and the returned map is reused by the next
// call — never share a Designer across concurrently running simulations;
// share a Cache instead.
type Designer struct {
	// Parallelism caps the solver pool; 0 means GOMAXPROCS.
	Parallelism int
	// Cache, when non-nil, carries menus across rounds.
	Cache *Cache
	// Metrics, when non-nil, is forwarded to the solver fan-out
	// (dyncontract_solver_* counters and per-build timings).
	Metrics *telemetry.Registry

	mu        sync.Mutex
	plan      pickPlan
	slots     []int32 // per agent: index into plan.fps
	contracts map[string]*contract.PiecewiseLinear
	shards    []*ShardDesigner // lazily built per-shard designers (Shard)
}

// maxScan bounds the linear-scan lists of a pickPlan: populations built
// from a handful of archetypes (the common case) resolve every agent with
// a few struct compares instead of hashing into a map; plans with more
// distinct keys or fingerprints switch to a map beyond this bound.
const maxScan = 16

// menuSource is where a pickPlan looks menus up and publishes new ones —
// the shared Cache or a shard's CacheSegment — with each missing key
// built by exactly one of any concurrent designers (Cache.claim).
type menuSource interface {
	claim(DesignKey) (*core.Menu, *menuFlight, bool)
	land(DesignKey, *menuFlight, *core.Menu)
	await(context.Context, DesignKey, *menuFlight) (*core.Menu, error)
}

// pickPlan deduplicates one batch of agents two levels deep — distinct
// fingerprints, each one pick, over distinct design keys, each one menu —
// and resolves them: menus from the source or one solver batch, then a
// contract per fingerprint.
type pickPlan struct {
	fps    []pickFP // distinct fingerprints
	fpIdx  map[pickFP]int32
	lastFP Fingerprint
	last   int32 // fps index of lastFP; −1 before the first add

	keys   []DesignKey
	reps   []*worker.Agent // per key: the first agent that produced it
	keyIdx map[DesignKey]int32

	menus []*core.Menu                // per key, after resolve
	picks []*contract.PiecewiseLinear // per fingerprint, after resolve

	subs    []solver.Subproblem
	pend    []int32       // per sub: the key index it builds
	flights []*menuFlight // per sub: the flight it lands (with a source)
	waits   []int32       // key indexes another designer is building
	waitFs  []*menuFlight // per wait: that designer's flight
	outs    []solver.Outcome
}

// pickFP is a fingerprint with its design key interned as an index into
// the plan's keys — a third of a Fingerprint's size, which matters for
// plans holding thousands of distinct weights.
type pickFP struct {
	key   int32
	mu, w float64
}

// reset empties the plan, keeping its buffers.
func (p *pickPlan) reset() {
	p.fps = p.fps[:0]
	clear(p.fpIdx)
	p.last = -1
	p.keys, p.reps = p.keys[:0], p.reps[:0]
	clear(p.keyIdx)
}

// add records agent a with fingerprint *fp, returning its index into the
// plan's distinct fingerprints.
func (p *pickPlan) add(fp *Fingerprint, a *worker.Agent) int32 {
	if p.last >= 0 && *fp == p.lastFP {
		return p.last
	}
	pf := pickFP{key: p.keyOf(&fp.DesignKey, a), mu: fp.Mu, w: fp.W}
	j := intern(&p.fps, &p.fpIdx, pf)
	p.lastFP, p.last = *fp, j
	return j
}

// keyOf returns key's index into the plan's keys, adding it — with a as
// its representative — when new.
func (p *pickPlan) keyOf(key *DesignKey, a *worker.Agent) int32 {
	n := len(p.keys)
	k := intern(&p.keys, &p.keyIdx, *key)
	if int(k) == n {
		p.reps = append(p.reps, a)
	}
	return k
}

// intern returns v's index in *list, appending it when absent: a linear
// scan up to maxScan entries, then a map (*idx) that indexes the whole
// list once the list crosses the bound.
func intern[T comparable](list *[]T, idx *map[T]int32, v T) int32 {
	l := *list
	if len(l) <= maxScan {
		for j := range l {
			if l[j] == v {
				return int32(j)
			}
		}
	} else if j, ok := (*idx)[v]; ok {
		return j
	}
	j := int32(len(l))
	*list = append(l, v)
	switch {
	case j == maxScan:
		if *idx == nil {
			*idx = make(map[T]int32, 2*maxScan)
		}
		for i, e := range *list {
			(*idx)[e] = int32(i)
		}
	case j > maxScan:
		(*idx)[v] = j
	}
	return j
}

// resolve finds every key's menu and then picks each fingerprint's
// contract from its key's menu under (part, mu, w). Menus come from src
// (nil means no cache) or are built in one BuildMenusInto batch and
// published back; a key some concurrent designer is already building is
// awaited rather than rebuilt, and re-claimed should that build fail.
// Picks that run the scalar core.Design (from a fallback menu) count on
// scratch — nil uses a temporary one — and on the solver's
// MetricScalarFallbacks in opts.Metrics.
func (p *pickPlan) resolve(ctx context.Context, src menuSource, part effort.Partition, mu float64, opts solver.Options, scratch *core.Scratch) error {
	p.menus = slices.Grow(p.menus[:0], len(p.keys))[:len(p.keys)]
	clear(p.menus)
	for {
		p.subs, p.pend, p.flights = p.subs[:0], p.pend[:0], p.flights[:0]
		p.waits, p.waitFs = p.waits[:0], p.waitFs[:0]
		for k, key := range p.keys {
			if p.menus[k] != nil {
				continue
			}
			if src != nil {
				m, f, own := src.claim(key)
				if m != nil {
					p.menus[k] = m
					continue
				}
				if !own {
					p.waits = append(p.waits, int32(k))
					p.waitFs = append(p.waitFs, f)
					continue
				}
				p.flights = append(p.flights, f)
			}
			p.pend = append(p.pend, int32(k))
			p.subs = append(p.subs, solver.Subproblem{Agent: p.reps[k], Config: core.Config{Part: part, Mu: mu}})
		}
		if err := p.build(ctx, src, opts); err != nil {
			return err
		}
		if len(p.waits) == 0 {
			break
		}
		// Only after landing every owned flight: two designers awaiting
		// each other's keys must both have published first.
		for j, k := range p.waits {
			m, err := src.await(ctx, p.keys[k], p.waitFs[j])
			if err != nil {
				return err
			}
			p.menus[k] = m // nil: the flight failed; the next pass re-claims
		}
		clear(p.waitFs)
	}
	var tmp core.Scratch
	if scratch == nil {
		scratch = &tmp
	}
	fallbacks := scratch.Fallbacks()
	defer func() {
		if n := scratch.Fallbacks() - fallbacks; n > 0 {
			opts.Metrics.Counter(solver.MetricScalarFallbacks).Add(n)
		}
	}()
	p.picks = p.picks[:0]
	for _, fp := range p.fps {
		k := fp.key
		c, err := p.menus[k].ContractFor(p.reps[k], core.Config{Part: part, Mu: mu, W: fp.w}, scratch)
		if err != nil {
			return fmt.Errorf("engine: design for agent %s: %w", p.reps[k].ID, err)
		}
		p.picks = append(p.picks, c)
	}
	return nil
}

// build runs the pending subproblems through the solver and lands every
// owned flight — built or not, so no waiter is left hanging.
func (p *pickPlan) build(ctx context.Context, src menuSource, opts solver.Options) error {
	if len(p.subs) == 0 {
		return nil
	}
	if cap(p.outs) < len(p.subs) {
		p.outs = make([]solver.Outcome, len(p.subs))
	}
	p.outs = p.outs[:len(p.subs)]
	err := solver.BuildMenusInto(ctx, p.subs, p.outs, opts)
	for j, k := range p.pend {
		m := p.outs[j].Menu
		p.menus[k] = m
		if src != nil {
			src.land(p.keys[k], p.flights[j], m)
		}
		if m == nil && err == nil {
			err = fmt.Errorf("engine: no design produced for agent %s", p.subs[j].Agent.ID)
		}
	}
	clear(p.flights) // landed: keep no channels alive
	return err
}

// Contracts designs one contract per agent, deduplicating by design key
// and fingerprint. Agents not in the population's weight map design with
// w = 0 (matching the zero-value semantics of map lookups used
// throughout).
//
// The returned map is valid until the next Contracts call on the same
// Designer — the engine hands it to observers under the same rule.
func (d *Designer) Contracts(ctx context.Context, pop *Population, agents []*worker.Agent) (map[string]*contract.PiecewiseLinear, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	d.plan.reset()
	d.slots = d.slots[:0]
	for _, a := range agents {
		fp := FingerprintOf(a, core.Config{Part: pop.Part, Mu: pop.Mu, W: pop.Weights[a.ID]})
		d.slots = append(d.slots, d.plan.add(&fp, a))
	}
	var src menuSource
	if d.Cache != nil {
		src = d.Cache
	}
	if err := d.plan.resolve(ctx, src, pop.Part, pop.Mu, solver.Options{Parallelism: d.Parallelism, Metrics: d.Metrics}, nil); err != nil {
		return nil, err
	}

	if d.contracts == nil {
		d.contracts = make(map[string]*contract.PiecewiseLinear, len(agents))
	} else {
		clear(d.contracts)
	}
	for i, a := range agents {
		d.contracts[a.ID] = d.plan.picks[d.slots[i]]
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
// Requests sharing a design key within the batch share one menu, and the
// designer's Cache (when set) carries menus across batches and across a
// concurrently running round loop wired to the same cache, so a warm query
// costs one cache lookup, an O(m) pick and zero solver calls.
//
// Unlike Contracts, DesignBatch touches none of the designer's per-round
// scratch and allocates its results fresh, so concurrent DesignBatch calls
// are safe with each other and with Contracts, provided Parallelism,
// Cache, and Metrics are not mutated concurrently. The returned slice is
// index-aligned with reqs.
func (d *Designer) DesignBatch(ctx context.Context, part effort.Partition, mu float64, reqs []DesignRequest) ([]*contract.PiecewiseLinear, error) {
	var p pickPlan
	p.reset()
	slots := make([]int32, len(reqs))
	for i, rq := range reqs {
		fp := FingerprintOf(rq.Agent, core.Config{Part: part, Mu: mu, W: rq.W})
		slots[i] = p.add(&fp, rq.Agent)
	}
	var src menuSource
	if d.Cache != nil {
		src = d.Cache
	}
	if err := p.resolve(ctx, src, part, mu, solver.Options{Parallelism: d.Parallelism, Metrics: d.Metrics}, nil); err != nil {
		return nil, err
	}
	out := make([]*contract.PiecewiseLinear, len(reqs))
	for i := range reqs {
		out[i] = p.picks[slots[i]]
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
// It retains a per-epoch plan — the shard's distinct design keys and
// fingerprints and each agent's slot into them, computed from the Shard's
// cached FPs — so a warm round costs one cache-segment lookup per distinct
// design key to validate that the served menus are still current, and
// reports changed = false without touching dst. Scratch is retained
// across rounds; steady-state calls allocate nothing.
type ShardDesigner struct {
	metrics *telemetry.Registry
	seg     *CacheSegment // nil without a Cache: every round redesigns

	built bool
	shard int
	epoch uint64
	slots []int32 // per agent: index into plan.fps
	plan  pickPlan

	// scratch is the shard's retained design scratch: the sequential
	// solver route (every fill of a non-solo shard) builds its cold menus
	// over it, so a shard's cold fills stay CPU-local (same owner
	// goroutine, same buffers) round after round. lastBatch records the
	// most recent fill's solver batch size for span annotation
	// (BatchStats).
	scratch   core.Scratch
	lastBatch int
}

// BatchStats reports the size of the most recent fill's solver batch
// (the shard's distinct design keys that missed the cache) and the
// cumulative number of solves the shard's retained scratch has served —
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
		// Warm validation: the plan is current (same view epoch), and a
		// pick is a pure function of (menu, μ, w), so the round is
		// unchanged iff every distinct design key still resolves to the
		// menu the last fill picked from. The lookups count as hits only
		// when the whole plan validates; otherwise fill counts each key
		// once, so CacheStats.Misses stays the number of menu builds.
		same := true
		for k, key := range d.plan.keys {
			m, ok := d.seg.peek(key)
			if !ok || m != d.plan.menus[k] {
				same = false
				break
			}
		}
		if same {
			d.seg.parent.hits.Add(uint64(len(d.plan.keys)))
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
		d.plan.reset()
		d.slots = d.slots[:0]
		for i := range sh.Agents {
			d.slots = append(d.slots, d.plan.add(&sh.FPs[i], sh.Agents[i]))
		}
		d.built = true
		d.shard = sh.Index
		d.epoch = sh.Epoch
	}
	if err := d.fill(ctx, pop, sh, dst); err != nil {
		// The plan's menus are now inconsistent with dst; force a full
		// refill next round rather than trusting a warm validation.
		d.built = false
		return true, err
	}
	return true, nil
}

// fill resolves every distinct design key — cache segment first, solver
// for the misses — picks every distinct fingerprint's contract, and
// writes the shard's contracts through the plan.
func (d *ShardDesigner) fill(ctx context.Context, pop *Population, sh *Shard, dst []*contract.PiecewiseLinear) error {
	// Under several shards, parallelism comes from the engine's pool; the
	// inner solve stays sequential — over the shard's retained scratch —
	// so shards never oversubscribe it and cold builds reuse CPU-local
	// buffers. A lone shard has no pool above it, so its solve fans out
	// across GOMAXPROCS (on pooled scratch).
	par := 1
	if sh.Solo {
		par = 0
	}
	var src menuSource
	if d.seg != nil {
		src = d.seg
	}
	err := d.plan.resolve(ctx, src, pop.Part, pop.Mu, solver.Options{Parallelism: par, Metrics: d.metrics, Scratch: &d.scratch}, &d.scratch)
	d.lastBatch = len(d.plan.subs)
	if err != nil {
		return err
	}
	for i := range sh.Agents {
		dst[i] = d.plan.picks[d.slots[i]]
	}
	return nil
}
