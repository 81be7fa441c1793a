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
	shard     *ShardDesigner // built on first use (Shard)
}

// maxScan bounds the linear-scan lists of a pickPlan: populations built
// from a handful of archetypes (the common case) resolve every agent with
// a few struct compares instead of hashing into a map; plans with more
// distinct keys or fingerprints switch to a map beyond this bound.
const maxScan = 16

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
	// byID maps an engine key id to its index into keys, plus one (zero:
	// not yet added) — addID's interning, in place of keyIdx.
	byID []int32

	menus []*core.Menu                // per key, after resolve
	picks []*contract.PiecewiseLinear // per fingerprint, after resolve

	subs    []solver.Subproblem
	pend    []int32       // per sub: the key index it builds
	flights []*menuFlight // per sub: the flight it lands (with a cache)
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
	clear(p.byID)
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

// addID records agent a, whose design key *key the engine's key table
// holds under id, at weight w; it returns a's index into the plan's
// distinct fingerprints. A run of agents sharing a fingerprint costs one
// compare each.
func (p *pickPlan) addID(id int32, key *DesignKey, mu, w float64, a *worker.Agent) int32 {
	if int(id) >= len(p.byID) {
		p.byID = append(p.byID, make([]int32, int(id)+1-len(p.byID))...)
	}
	k := p.byID[id] - 1
	if k < 0 {
		k = int32(len(p.keys))
		p.keys = append(p.keys, *key)
		p.reps = append(p.reps, a)
		p.byID[id] = k + 1
	}
	pf := pickFP{key: k, mu: mu, w: w}
	if p.last >= 0 && p.fps[p.last] == pf {
		return p.last
	}
	p.last = intern(&p.fps, &p.fpIdx, pf)
	return p.last
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
// published back, each missing key built by exactly one of any
// concurrent designers (Cache.claim): a key another designer is already
// building is awaited rather than rebuilt, and re-claimed should that
// build fail.
// Picks that run the scalar core.Design (from a fallback menu) count on
// scratch — nil uses a temporary one — and on the solver's
// MetricScalarFallbacks in opts.Metrics.
func (p *pickPlan) resolve(ctx context.Context, src *Cache, part effort.Partition, mu float64, opts solver.Options, scratch *core.Scratch) error {
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
			m, err := src.await(ctx, p.waitFs[j])
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
func (p *pickPlan) build(ctx context.Context, src *Cache, opts solver.Options) error {
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
	if err := d.plan.resolve(ctx, d.Cache, pop.Part, pop.Mu, solver.Options{Parallelism: d.Parallelism, Metrics: d.Metrics}, nil); err != nil {
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

// Design designs one agent's contract at requester weight w against the
// given partition and μ — the entry point for serving layers answering a
// design-only query. The agent need not belong to any population, and is
// not retained past the call. With the designer's Cache set, a warm query
// costs one cache lookup, an O(m) pick and zero solver calls; a cold key
// is built once across concurrent callers and a round loop wired to the
// same cache (Cache.claim).
//
// Unlike Contracts, Design touches none of the designer's per-round
// scratch, so concurrent Design calls are safe with each other and with
// Contracts, provided Parallelism, Cache, and Metrics are not mutated
// concurrently. On return the Cache's counters are published to Metrics,
// so a design query's hits reach the registry when it is answered.
func (d *Designer) Design(ctx context.Context, part effort.Partition, mu float64, a *worker.Agent, w float64) (*contract.PiecewiseLinear, error) {
	var p pickPlan
	p.reset()
	fp := FingerprintOf(a, core.Config{Part: part, Mu: mu, W: w})
	p.add(&fp, a)
	err := p.resolve(ctx, d.Cache, part, mu, solver.Options{Parallelism: d.Parallelism, Metrics: d.Metrics}, nil)
	d.Cache.publish(d.Metrics)
	if err != nil {
		return nil, err
	}
	return p.picks[0], nil
}

// Shard returns the designer behind ShardPolicy.ShardContracts, creating
// it on first use. The ShardDesigner is single-owner (one engine calls it
// from one goroutine at a time) and reads this Designer's Cache and
// Metrics at every call, so a policy rewired to another engine's cache
// designs against that cache from its next call.
func (d *Designer) Shard() *ShardDesigner {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.shard == nil {
		d.shard = &ShardDesigner{owner: d}
	}
	return d.shard
}

// ShardDesigner designs contracts over an engine's indexed view. It
// retains a per-epoch plan — the view's distinct design keys and
// fingerprints and each agent's slot into them, computed from the Shard's
// key ids and weights — so a warm round costs one cache lookup per
// distinct design key to validate that the served menus are still
// current, and reports changed = false without touching dst. Cold menus
// build across GOMAXPROCS. Scratch is retained across rounds;
// steady-state calls allocate nothing.
type ShardDesigner struct {
	owner *Designer // its Cache (nil: every round redesigns) and Metrics

	built bool
	epoch uint64
	slots []int32 // per agent: index into plan.fps
	plan  pickPlan

	// scratch is the retained design scratch: picks, and a cold batch
	// that runs sequentially (a single missing key), run over it.
	// lastBatch records the most recent fill's solver batch size for span
	// annotation (BatchStats).
	scratch   core.Scratch
	lastBatch int
}

// BatchStats implements BatchReporter: the size of the most recent
// fill's solver batch (the distinct design keys that missed the cache)
// and the cumulative number of solves the retained scratch has served.
func (d *ShardDesigner) BatchStats() (batch int, scratchUses uint64) {
	return d.lastBatch, d.scratch.Uses()
}

// Contracts implements the ShardPolicy work: fill dst[i] with the
// contract for sh.Agents[i], reporting whether anything changed since the
// previous call for this epoch.
func (d *ShardDesigner) Contracts(ctx context.Context, pop *Population, sh *Shard, dst []*contract.PiecewiseLinear) (bool, error) {
	if len(dst) != len(sh.Agents) {
		return false, fmt.Errorf("engine: %d contract slots for %d agents", len(dst), len(sh.Agents))
	}
	cache := d.owner.Cache
	replan := !d.built || d.epoch != sh.Epoch
	if !replan && cache != nil {
		// Warm validation: the plan is current (same view epoch), and a
		// pick is a pure function of (menu, μ, w), so the round is
		// unchanged iff every distinct design key still resolves to the
		// menu the last fill picked from. The lookups count as hits only
		// when the whole plan validates; otherwise fill counts each key
		// once, so CacheStats.Misses stays the number of menu builds.
		same := true
		for k, key := range d.plan.keys {
			m, ok := cache.peek(key)
			if !ok || m != d.plan.menus[k] {
				same = false
				break
			}
		}
		if same {
			cache.hits.Add(uint64(len(d.plan.keys)))
			d.lastBatch = 0
			return false, nil
		}
		// A failed validation under a matching epoch can mean the engine
		// patched fingerprint slots in place (sparse drift) since the
		// plan was built — the plan's slot/fingerprint layout may be
		// stale, so rebuild it from the view's current keys and weights
		// before refilling.
		replan = true
	}
	if replan {
		d.plan.reset()
		d.slots = d.slots[:0]
		for i, id := range sh.Keys {
			d.slots = append(d.slots, d.plan.addID(id, &sh.table.keys[id], pop.Mu, sh.Weights[i], sh.Agents[i]))
		}
		d.built = true
		d.epoch = sh.Epoch
	}
	err := d.plan.resolve(ctx, cache, pop.Part, pop.Mu, solver.Options{Metrics: d.owner.Metrics, Scratch: &d.scratch}, &d.scratch)
	d.lastBatch = len(d.plan.subs)
	if err != nil {
		// The plan's menus are now inconsistent with dst; force a full
		// refill next round rather than trusting a warm validation.
		d.built = false
		return true, err
	}
	for i := range sh.Agents {
		dst[i] = d.plan.picks[d.slots[i]]
	}
	return true, nil
}
