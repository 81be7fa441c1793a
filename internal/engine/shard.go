package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/spans"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// This file is the engine's design and respond stages. The paper's
// decomposition result (§IV-B) makes both contract design and best
// responses separable per worker/community, so the engine partitions the
// population into shards — one shard when Config.Shards is 0 — and runs
// the design and respond stages per shard on a bounded pool, merging
// results back in global agent-ID order. The ledger is byte-identical for
// every shard count (settlement remains one sequential pass: float
// addition is not associative, so per-shard partial sums would drift in
// the last ulp).
//
// Shard assignment hashes agent IDs (FNV-1a), so it is stable across
// rounds and across processes: the same population shards the same way
// everywhere, and adding an agent moves no settled agent's outcome slot —
// outcomes are written to each agent's position in the global ID-sorted
// order, not to contiguous per-shard blocks.

// ShardOf returns the shard index for an agent ID under an n-way
// partition: FNV-1a over the ID, reduced mod n. It is a pure function of
// (id, n) — stable across rounds, runs, and machines — so shard-local
// state (caches, scratch) stays warm for as long as the population does.
func ShardOf(id string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// Shard is one partition of a population's ID-sorted agent view. Agents
// within a shard keep their global ID order, and every per-agent datum
// the hot loop needs — weight, malice estimate, design fingerprint — is
// carried as an indexed slice aligned with Agents, so shard loops never
// touch the population's string-keyed maps.
type Shard struct {
	// Index is the shard's position in the partition.
	Index int
	// Epoch identifies the population view this shard was built from.
	// Engine-built shards use a counter that advances on every view
	// rebuild (generation bump, or every round under Drift);
	// Population.Shards uses the population's generation. Consumers that
	// cache per-shard plans (ShardDesigner) key them on (Index, Epoch).
	Epoch uint64
	// Agents is the shard's slice of the ID-sorted population view.
	Agents []*worker.Agent
	// Global maps each shard position to the agent's index in the global
	// ID-sorted view — the slot its outcome is written to.
	Global []int32
	// Weights is the indexed view of Population.Weights for Agents.
	Weights []float64
	// Malice is the indexed view of Population.MaliceProb for Agents
	// (zero for agents with no entry, matching map-lookup semantics).
	Malice []float64
	// FPs caches each agent's design fingerprint, computed once per view
	// rebuild and shared by the design and respond stages.
	FPs []Fingerprint
	// Solo reports that this is the partition's only shard, so no other
	// shard designs concurrently: a ShardPolicy may fan the shard's cold
	// designs out across GOMAXPROCS (ShardDesigner does). With several
	// shards the parallelism comes from running shards concurrently, and
	// each shard's solve should stay sequential.
	Solo bool
}

// shardAssign distributes the ID-sorted agents across the reset shards by
// ID hash, filling every indexed view. counts, when non-nil, receives one
// increment per assigned agent under its design key — the engine's
// refcount index is built here, at the moment each fingerprint is
// written, never by walking the views after the fact.
func shardAssign(p *Population, agents []*worker.Agent, shards []*Shard, counts map[DesignKey]int32) {
	n := len(shards)
	// Size every view for an even split up front: a hash partition is
	// near-even, so at most the fullest shards grow once more.
	hint := len(agents)/n + 1
	for _, s := range shards {
		s.Agents = slices.Grow(s.Agents, hint)
		s.Global = slices.Grow(s.Global, hint)
		s.Weights = slices.Grow(s.Weights, hint)
		s.Malice = slices.Grow(s.Malice, hint)
		s.FPs = slices.Grow(s.FPs, hint)
	}
	// Refcounts accumulate per run of equal design keys: archetype
	// populations list long runs of them in ID order.
	var runKey DesignKey
	var run int32
	for gi, a := range agents {
		s := shards[ShardOf(a.ID, n)]
		w := p.Weights[a.ID]
		fp := FingerprintOf(a, core.Config{Part: p.Part, Mu: p.Mu, W: w})
		s.Agents = append(s.Agents, a)
		s.Global = append(s.Global, int32(gi))
		s.Weights = append(s.Weights, w)
		s.Malice = append(s.Malice, p.MaliceProb[a.ID])
		s.FPs = append(s.FPs, fp)
		if counts != nil {
			if run > 0 && fp.DesignKey != runKey {
				counts[runKey] += run
				run = 0
			}
			runKey = fp.DesignKey
			run++
		}
	}
	if run > 0 {
		counts[runKey] += run
	}
}

// Shards partitions the population into n deterministic shards of its
// ID-sorted agent view (see ShardOf for the assignment; it is stable
// across rounds and processes). n is clamped to the number of agents;
// n <= 0 returns nil. The shards are built fresh from the population's
// current state — they are indexed snapshots, not live views.
func (p *Population) Shards(n int) []Shard {
	if n <= 0 || len(p.Agents) == 0 {
		return nil
	}
	agents := append([]*worker.Agent(nil), p.Agents...)
	sort.Slice(agents, func(i, j int) bool { return agents[i].ID < agents[j].ID })
	if n > len(agents) {
		n = len(agents)
	}
	shards := make([]Shard, n)
	ptrs := make([]*Shard, n)
	for i := range shards {
		shards[i].Index = i
		shards[i].Epoch = p.generation
		shards[i].Solo = n == 1
		ptrs[i] = &shards[i]
	}
	shardAssign(p, agents, ptrs, nil)
	return shards
}

// ShardPolicy is implemented by policies that can design one shard at a
// time — the fast path of the round pipeline. ShardContracts fills
// dst[i] with the contract for sh.Agents[i] (nil excludes the agent this
// round) and reports whether any entry changed since its previous call
// for this shard and epoch; false on a shard whose population view did
// not move lets the engine skip that shard's respond stage outright, as
// its retained outcomes are already this round's exact values.
//
// The engine calls ShardContracts once per shard per round; calls for
// different shards may run concurrently, so implementations must confine
// per-shard state to the shard (ShardDesigner does) or lock shared state.
// Policies that implement only Policy still work for every shard count —
// the engine designs through the whole-population Contracts call and runs
// just the respond stage per shard.
type ShardPolicy interface {
	Policy
	ShardContracts(ctx context.Context, pop *Population, sh *Shard, dst []*contract.PiecewiseLinear) (changed bool, err error)
}

// FingerprintPurePolicy is an opt-in marker for ShardPolicies whose
// per-agent contract is a pure function of the agent's design
// fingerprint — no other population, round, or shard state feeds the
// design (DynamicPolicy qualifies: its ShardDesigner resolves every
// contract through the fingerprint-keyed design cache).
//
// The marker unlocks the engine's sparse-drift patch route: when a
// Population.Touch scope arrives and every touched agent's new
// fingerprint already resolves in Config.Cache, the engine serves those
// agents' contracts straight from the cache and refreshes only their
// outcome slots, leaving the shard's designer plan, warm validation, and
// every untouched agent's retained outcome in place. Touched agents
// whose fingerprint misses the cache fall back to the epoch-bump route
// (full shard re-plan and respond), so the marker never changes results
// — only how much of a shard is recomputed.
type FingerprintPurePolicy interface {
	ShardPolicy
	// FingerprintPure is a marker method; implementations do nothing.
	FingerprintPure()
}

// ShardBatchReporter is an opt-in interface for ShardPolicies that route
// cold designs through the batched solver (core.DesignInto over a
// retained per-shard core.Scratch). After a ShardContracts call,
// ShardBatchStats reports the number of subproblems the shard's last
// design batch carried (0 on a fully warm round) and the cumulative use
// count of the shard's scratch — evidence the flat arrays are actually
// being reused rather than reallocated. Traced rounds attach both to the
// shard's "engine.shard.design" span.
type ShardBatchReporter interface {
	ShardBatchStats(shard int) (batch int, scratchUses uint64)
}

// shardRun is the engine's retained per-shard state: the shard view, the
// policy's dense contract slots, the memo segment, respond scratch, and
// the warm-skip bookkeeping.
type shardRun struct {
	sh        Shard
	contracts []*contract.PiecewiseLinear
	memoSeg   *RespondMemoSegment
	scratch   respondScratch
	// outsOK records that the engine's outcome buffer already holds this
	// shard's outcomes for its current contracts — set after a dense-route
	// respond, cleared whenever the view, the contracts, or the buffer
	// change. A round where every shard is warm skips respond entirely.
	outsOK bool
	// changed is ShardContracts' report for the current round.
	changed bool
	// wu is the shard's summed worker utility from its last respond.
	wu float64
	// wuSlots is the per-agent utility breakdown behind wu, so the patch
	// route can refresh single slots and re-fold the sum exactly.
	wuSlots []float64
	// dirty lists shard-local slots patched in place by the sparse-drift
	// route (contract already rewritten from the design cache): respond
	// recomputes exactly these outcomes while outsOK keeps the rest.
	dirty []int32
	// seen stamps the view epoch of the last scoped refresh that counted
	// this shard as touched, so a refresh counts each shard once.
	seen uint64
}

// ensureShards (re)builds the per-shard views over the ID-sorted agent
// view, under the same scope rules as roundAgents: kept outright under
// viewKeep with an unmoved generation, spliced and refreshed in place
// for exactly the declared joins, leaves, and touched agents under
// viewStructural — untouched shards keep their epoch, and with it their
// warm design plans and retained outcomes — and rebuilt from scratch
// otherwise (viewFull covers Bump, undeclared legacy Drift hooks, scopes
// refuted by prepareStructural, and generation moves observed
// second-hand on a shared population). Reports whether a full rebuild
// happened.
func (e *Engine) ensureShards(st *roundState, agents []*worker.Agent) bool {
	gen := e.pop.Generation()
	if e.shardsOK {
		switch e.scope.rule {
		case viewKeep:
			if e.shardsGen == gen {
				return false
			}
		case viewStructural:
			e.refreshShardsStructural(st)
			e.shardsGen = gen
			return false
		}
	}
	// Full rebuild: shard Global indices are re-assigned densely in global
	// ID order, so the slot mapping returns to identity.
	e.fragmented = false
	e.physLen = len(agents)
	e.tombstones = 0
	e.viewEpoch++
	// The fingerprint refcount index is rebuilt eagerly alongside the
	// views: shardAssign counts each fingerprint as it writes it. Without
	// a design cache or respond memo there is nothing to evict, so the
	// index (and all drift-time refcounting) stays off.
	counts := e.fpCounts
	if e.cfg.Cache != nil || e.cfg.Memo != nil {
		if counts == nil {
			counts = make(map[DesignKey]int32, len(agents))
			e.fpCounts = counts
		} else {
			clear(counts)
		}
	} else {
		counts = nil
		e.fpCounts = nil
	}
	n := e.cfg.Shards
	if n > len(agents) {
		n = len(agents)
	}
	if len(e.shards) != n {
		e.shards = make([]shardRun, n)
		e.shardPtrs = make([]*Shard, n)
	}
	for i := range e.shards {
		sr := &e.shards[i]
		sr.sh.Index = i
		sr.sh.Epoch = e.viewEpoch
		sr.sh.Solo = n == 1
		sr.sh.Agents = sr.sh.Agents[:0]
		sr.sh.Global = sr.sh.Global[:0]
		sr.sh.Weights = sr.sh.Weights[:0]
		sr.sh.Malice = sr.sh.Malice[:0]
		sr.sh.FPs = sr.sh.FPs[:0]
		sr.outsOK = false
		sr.changed = false
		sr.dirty = sr.dirty[:0]
		if e.cfg.Memo != nil && sr.memoSeg == nil {
			sr.memoSeg = e.cfg.Memo.Segment()
		}
		e.shardPtrs[i] = &sr.sh
	}
	shardAssign(e.pop, agents, e.shardPtrs, counts)
	for i := range e.shards {
		sr := &e.shards[i]
		na := len(sr.sh.Agents)
		if cap(sr.contracts) < na {
			sr.contracts = make([]*contract.PiecewiseLinear, na)
		}
		sr.contracts = sr.contracts[:na]
		for j := range sr.contracts {
			sr.contracts[j] = nil
		}
	}
	e.shardsOK = true
	e.shardsGen = gen
	if e.m != nil {
		e.m.shards.Set(float64(n))
	}
	return true
}

// refreshShardSlot refreshes one touched agent's shard slot — weight,
// malice, fingerprint (refcounted) — and routes the contract. Under a
// FingerprintPurePolicy whose design key already resolves in the menu
// cache, the agent's contract slot is patched with the menu's pick and only
// its outcome slot is marked dirty — the shard keeps its epoch, its
// designer plan, and every other retained outcome (the patch route).
// Otherwise the shard's epoch is bumped, forcing its designer plan and
// retained outcomes to revalidate in full (the fallback route). Returns
// the shard-local slot, or -1 when the ID does not resolve in the shard
// (a touched agent that left this round).
func (e *Engine) refreshShardSlot(sr *shardRun, id string, epoch uint64, canPatch bool) int {
	sh := &sr.sh
	var j int
	if !e.fragmented {
		// Identity slot mapping: Global is monotone in view order, so the
		// slot binary-searches by the agent's view index — int compares,
		// no string walks (the touch-only drift hot path).
		gi, ok := e.byID[id]
		if !ok {
			return -1
		}
		j = sort.Search(len(sh.Global), func(k int) bool { return sh.Global[k] >= gi })
		if j >= len(sh.Global) || sh.Global[j] != gi {
			return -1
		}
	} else {
		// After a splice Global holds physical outcome slots, no longer
		// monotone; resolve by agent ID instead.
		var ok bool
		if j, ok = searchAgents(sh.Agents, id); !ok {
			return -1
		}
	}
	a := sh.Agents[j]
	w := e.pop.Weights[id]
	sh.Weights[j] = w
	sh.Malice[j] = e.pop.MaliceProb[id]
	fp := FingerprintOf(a, core.Config{Part: e.pop.Part, Mu: e.pop.Mu, W: w})
	if old := sh.FPs[j]; fp != old {
		sh.FPs[j] = fp
		if e.fpCounts != nil && fp.DesignKey != old.DesignKey {
			e.fpCounts[fp.DesignKey]++
			e.dropKey(old.DesignKey)
		}
	}
	if canPatch {
		if c := e.patchContract(a, fp); c != nil {
			sr.contracts[j] = c
			sr.dirty = append(sr.dirty, int32(j))
			return j
		}
	}
	if sh.Epoch != epoch {
		sh.Epoch = epoch
		sr.outsOK = false
	}
	return j
}

// patchContract is the patch route's design: the contract the cached
// menu for fp's design key offers at fp's weight, or nil when the key
// misses the cache (or its menu needs the scalar fallback), in which case
// the caller takes the epoch-bump route and the shard's fill counts the
// miss and builds the menu. A served patch counts one cache hit.
func (e *Engine) patchContract(a *worker.Agent, fp Fingerprint) *contract.PiecewiseLinear {
	m, ok := e.cfg.Cache.peek(fp.DesignKey)
	if !ok || m.Fallback() {
		return nil
	}
	c, err := m.ContractFor(a, core.Config{Part: e.pop.Part, Mu: fp.Mu, W: fp.W}, nil)
	if err != nil {
		return nil // the fill reports it
	}
	e.cfg.Cache.hits.Inc()
	return c
}

// dropKey decrements a design key's refcount, collecting it into the
// round's dead list when the last holder is gone. A no-op when the index
// is off (no design cache and no respond memo: nothing to evict).
func (e *Engine) dropKey(key DesignKey) {
	if e.fpCounts == nil {
		return
	}
	if c := e.fpCounts[key] - 1; c <= 0 {
		delete(e.fpCounts, key)
		e.deadKeys = append(e.deadKeys, key)
	} else {
		e.fpCounts[key] = c
	}
}

// removeDeadKeys evicts the refresh's dead design keys from the menu
// cache and respond memo. A key that died and was re-minted in the same
// refresh (one agent's leave, another's join) is filtered out — evicting
// it would only cost a rebuild, but there is no reason to.
func (e *Engine) removeDeadKeys() {
	if len(e.deadKeys) == 0 {
		return
	}
	dead := e.deadKeys[:0]
	for _, key := range e.deadKeys {
		if _, live := e.fpCounts[key]; !live {
			dead = append(dead, key)
		}
	}
	e.deadKeys = dead
	if len(dead) == 0 {
		return
	}
	if e.cfg.Cache != nil {
		e.cfg.Cache.Remove(dead...)
	}
	if e.cfg.Memo != nil {
		e.cfg.Memo.RemoveKeys(dead...)
	}
}

// refreshShardsStructural applies a declared scope to the retained shard
// views in place. Joins and leaves — already resolved and ID-sorted by
// prepareStructural, slots assigned by spliceView — are grouped by owning
// shard and spliced into each affected shard's views in one merge pass
// (spliceShard). The scope's plain-touched agents then refresh their
// slots (refreshShardSlot, resolved by ID against the spliced views).
// Shards owning no declared ID keep their epoch, plan, and retained
// outcomes untouched. Fingerprints are refcounted across all shards, so
// only fingerprints whose last holder drifted or left are evicted from
// the design cache and respond memo; shared designs survive a partial
// drift. Finally, maybeCompact renumbers the outcome slots back to
// identity when enough tombstones accumulated.
func (e *Engine) refreshShardsStructural(st *roundState) {
	var t telemetry.Timer
	if e.m != nil {
		t = telemetry.StartTimer()
	}
	e.viewEpoch++
	epoch := e.viewEpoch
	canPatch := e.patchPol && e.cfg.Cache != nil
	touched := 0
	e.deadKeys = e.deadKeys[:0]
	n := len(e.shards)

	// Group the declarations by owning shard; the per-shard lists inherit
	// the global ID order.
	if cap(e.shardJoins) < n {
		e.shardJoins = make([][]int32, n)
		e.shardLeaves = make([][]int32, n)
	}
	e.shardJoins = e.shardJoins[:n]
	e.shardLeaves = e.shardLeaves[:n]
	for i := range e.shardJoins {
		e.shardJoins[i] = e.shardJoins[i][:0]
		e.shardLeaves[i] = e.shardLeaves[i][:0]
	}
	for k, a := range e.structJoins {
		s := ShardOf(a.ID, n)
		e.shardJoins[s] = append(e.shardJoins[s], int32(k))
	}
	for k, id := range e.scope.leaves {
		s := ShardOf(id, n)
		e.shardLeaves[s] = append(e.shardLeaves[s], int32(k))
	}

	for si := range e.shards {
		if len(e.shardJoins[si])+len(e.shardLeaves[si]) == 0 {
			continue
		}
		sr := &e.shards[si]
		e.spliceShard(sr, e.shardJoins[si], e.shardLeaves[si], epoch, canPatch)
		if sr.seen != epoch {
			sr.seen = epoch
			touched++
		}
	}

	// Plain-touched agents refresh their slots; joiners were handled at
	// their insertion, and a touched ID that left no longer resolves and
	// is skipped.
	for _, id := range e.scope.ids {
		if _, ok := e.structJoinSet[id]; ok {
			continue
		}
		sr := &e.shards[ShardOf(id, n)]
		j := e.refreshShardSlot(sr, id, epoch, canPatch)
		if j >= 0 && sr.seen != epoch {
			sr.seen = epoch
			touched++
		}
	}

	e.removeDeadKeys()
	if e.m != nil {
		e.m.driftShardsRebuilt.Add(uint64(touched))
		e.m.driftShardsSkipped.Add(uint64(n - touched))
		e.m.driftRebuild.Observe(t.Seconds())
	}
	e.maybeCompact(st)
}

// spliceShard merges a shard's declared joins and leaves into its views
// in place: survivor segments between the ID-sorted splice points shift
// by their cumulative offset (most never move), so the cost scales with
// the shifted span, not the shard size. Surviving agents keep their
// contract slot, outcome slot, and per-slot utility; leavers drop out
// (their fingerprint refcount released, their outcome slot already
// tombstoned by spliceView); each joiner lands at its ID-sorted position
// carrying the outcome slot spliceView assigned. Joiner contracts take
// the sparse patch route — fingerprint-pure policy, design cache hit,
// dirty slot — when they can; any joiner that cannot bumps the shard's
// epoch for a full re-plan.
func (e *Engine) spliceShard(sr *shardRun, joins, leaves []int32, epoch uint64, canPatch bool) {
	sh := &sr.sh
	if len(sr.dirty) > 0 {
		// Stale patch slots (an aborted previous round) would shift under
		// the splice; fall back to a full shard respond.
		sr.dirty = sr.dirty[:0]
		sr.outsOK = false
	}
	// Resolve splice positions up front (joins and leaves arrive in ID
	// order, so positions are non-decreasing) and release every leaver's
	// fingerprint before the moves overwrite its slot.
	jpos := e.msJoinPos[:0]
	for _, k := range joins {
		jp, _ := searchAgents(sh.Agents, e.structJoins[k].ID)
		jpos = append(jpos, int32(jp))
	}
	lpos := e.msLeavePos[:0]
	for _, k := range leaves {
		lp, _ := searchAgents(sh.Agents, e.scope.leaves[k]) // resolved by prepareStructural
		lpos = append(lpos, int32(lp))
		e.dropKey(sh.FPs[lp].DesignKey)
	}
	segs, jdst := buildSpliceSegs(e.msSegs[:0], e.msJoinDst[:0], jpos, lpos, len(sh.Agents))

	nOld := len(sh.Agents)
	nNew := nOld + len(joins) - len(leaves)
	nMax := max(nOld, nNew)
	sh.Agents = grown(sh.Agents, nMax)
	sh.Global = grown(sh.Global, nMax)
	sh.Weights = grown(sh.Weights, nMax)
	sh.Malice = grown(sh.Malice, nMax)
	sh.FPs = grown(sh.FPs, nMax)
	// contracts/wuSlots can run shorter than Agents on a never-planned
	// shard; the zero padding matches the old double-buffer merge.
	sr.contracts = grown(sr.contracts, nMax)
	sr.wuSlots = grown(sr.wuSlots, nMax)
	spliceMove(sh.Agents, segs)
	spliceMove(sh.Global, segs)
	spliceMove(sh.Weights, segs)
	spliceMove(sh.Malice, segs)
	spliceMove(sh.FPs, segs)
	spliceMove(sr.contracts, segs)
	spliceMove(sr.wuSlots, segs)

	bump := false
	for j, k := range joins {
		a := e.structJoins[k]
		d := jdst[j]
		w := e.pop.Weights[a.ID]
		fp := FingerprintOf(a, core.Config{Part: e.pop.Part, Mu: e.pop.Mu, W: w})
		if e.fpCounts != nil {
			e.fpCounts[fp.DesignKey]++
		}
		sh.Agents[d] = a
		sh.Global[d] = e.structJoinSlots[k]
		sh.Weights[d] = w
		sh.Malice[d] = e.pop.MaliceProb[a.ID]
		sh.FPs[d] = fp
		sr.wuSlots[d] = 0
		var c *contract.PiecewiseLinear
		if canPatch {
			c = e.patchContract(a, fp)
		}
		if c != nil {
			sr.dirty = append(sr.dirty, d)
		} else {
			bump = true
		}
		sr.contracts[d] = c
	}
	if nNew < nMax {
		for i := nNew; i < nMax; i++ {
			sh.Agents[i] = nil // release the pointer tails
			sr.contracts[i] = nil
		}
		sh.Agents = sh.Agents[:nNew]
		sh.Global = sh.Global[:nNew]
		sh.Weights = sh.Weights[:nNew]
		sh.Malice = sh.Malice[:nNew]
		sh.FPs = sh.FPs[:nNew]
		sr.contracts = sr.contracts[:nNew]
		sr.wuSlots = sr.wuSlots[:nNew]
	}
	e.msJoinPos, e.msLeavePos, e.msSegs, e.msJoinDst = jpos, lpos, segs, jdst
	if bump {
		sh.Epoch = epoch
		sr.outsOK = false
		sr.dirty = sr.dirty[:0]
	} else if len(leaves) > 0 && sr.outsOK {
		// A leave shrinks the retained per-slot utility breakdown; re-fold
		// the shard's sum so the warm skip stays exact.
		var wu float64
		for _, u := range sr.wuSlots {
			wu += u
		}
		sr.wu = wu
	}
}

// Compaction gate: the deferred slot compaction runs when at least
// compactMinTombstones outcome slots are dead and tombstones make up at
// least 1/compactFrag of the physical slot range. Between compactions,
// fragmented rounds pay one extra ID-order gather per round.
const (
	compactFrag          = 4
	compactMinTombstones = 64
)

// maybeCompact renumbers the outcome slots back to the identity mapping
// when fragmentation passes the threshold: live outcomes are gathered
// into ID order (becoming the new backing array), every shard's Global
// slots are rewritten through the old→new remap, and the tombstone count
// resets. Retained outcomes move with their slots, so shard warm state
// (outsOK, dirty, wuSlots) survives intact. Traced rounds record the
// batch as an "engine.compact" span under the round span.
func (e *Engine) maybeCompact(st *roundState) {
	if !e.fragmented || e.tombstones < compactMinTombstones || e.tombstones*compactFrag < e.physLen {
		return
	}
	var sp *spans.Span
	if st != nil && st.span != nil {
		sp = st.span.StartChild("engine.compact")
		sp.SetInt("tombstones", int64(e.tombstones))
		sp.SetInt("slots", int64(e.physLen))
	}
	n := len(e.agents)
	if cap(e.slotRemap) < e.physLen {
		e.slotRemap = make([]int32, e.physLen)
	}
	remap := e.slotRemap[:e.physLen]
	if cap(e.ordered) < n {
		e.ordered = make([]AgentOutcome, n)
	}
	ord := e.ordered[:cap(e.ordered)]
	for i, s := range e.slots {
		remap[s] = int32(i)
		if int(s) < len(e.outs) {
			// Slots at or past len(e.outs) are this round's joiners —
			// assigned before the outcome buffer grew; their outcomes are
			// computed after the remap anyway (they are dirty or their
			// shard re-responds in full).
			ord[i] = e.outs[s]
		}
	}
	e.outs, e.ordered = ord, e.outs
	for si := range e.shards {
		g := e.shards[si].sh.Global
		for j := range g {
			g[j] = remap[g[j]]
		}
	}
	e.fragmented = false
	e.physLen = n
	e.tombstones = 0
	if e.m != nil {
		e.m.driftCompactions.Inc()
	}
	if sp != nil {
		sp.End()
	}
}

// stageDesign resolves the round's agent and shard views, then asks the
// policy for contracts. With a ShardPolicy each shard designs
// independently (on the pool when the views were just rebuilt — warm
// validations are too cheap to fan out); otherwise the whole-population
// Contracts call runs once and only the respond stage is sharded.
func (e *Engine) stageDesign(ctx context.Context, st *roundState) error {
	st.agents = e.roundAgents()
	rebuilt := e.ensureShards(st, st.agents)
	if e.shardPol == nil {
		contracts, err := e.cfg.Policy.Contracts(ctx, e.pop)
		if err != nil {
			return fmt.Errorf("engine: policy %s round %d: %w", e.cfg.Policy.Name(), st.r, err)
		}
		st.contracts = contracts
		return nil
	}
	if rebuilt && len(e.shards) > 1 {
		if err := e.fanOut(ctx, st.r, len(e.shards), func(i int) error {
			return e.designShard(ctx, st, i)
		}); err != nil {
			return err
		}
	} else {
		for i := range e.shards {
			if err := e.designShard(ctx, st, i); err != nil {
				return err
			}
		}
	}
	// The merged per-ID map exists only for observers (OnContracts); the
	// respond stage reads the dense slots directly.
	if len(e.cfg.Observers) > 0 {
		st.contracts = e.mergeContracts(st, rebuilt)
	}
	return nil
}

// designShard designs one shard through the ShardPolicy. Traced rounds
// hang one "engine.shard.design" span per shard off the design stage's
// span, annotated with the shard's size, the round's drift
// classification, and the design cache's hit/miss deltas across the call
// (the counters are shared atomics, so under the concurrent fan-out the
// deltas are attribution-approximate; totals remain exact).
func (e *Engine) designShard(ctx context.Context, st *roundState, i int) error {
	sr := &e.shards[i]
	var t telemetry.Timer
	if st.timed {
		t = telemetry.StartTimer()
	}
	var sp *spans.Span
	var hits0, misses0 uint64
	if st.stageSpan != nil {
		sp = st.stageSpan.StartChild("engine.shard.design")
		if e.cfg.Cache != nil {
			cs := e.cfg.Cache.Stats()
			hits0, misses0 = cs.Hits, cs.Misses
		}
	}
	changed, err := e.shardPol.ShardContracts(ctx, e.pop, &sr.sh, sr.contracts)
	if err != nil {
		sp.End()
		return fmt.Errorf("engine: policy %s shard %d round %d: %w", e.cfg.Policy.Name(), i, st.r, err)
	}
	sr.changed = changed
	// A patch-route shard (dirty slots, outcomes still retained) keeps
	// outsOK through a changed report: the policy is fingerprint-pure, so
	// a refill resolves every untouched slot to a value-identical
	// contract, and the dirty slots are recomputed by the patch respond.
	if changed && len(sr.dirty) == 0 {
		sr.outsOK = false
	}
	if st.timed {
		e.m.shardDesign.Observe(t.Seconds())
	}
	if sp != nil {
		sp.SetInt("shard", int64(i))
		sp.SetInt("agents", int64(len(sr.sh.Agents)))
		sp.SetAttr("drift", e.scope.rule.String())
		if e.cfg.Cache != nil {
			cs := e.cfg.Cache.Stats()
			sp.SetInt("cache.hits", int64(cs.Hits-hits0))
			sp.SetInt("cache.misses", int64(cs.Misses-misses0))
		}
		sp.SetAttr("changed", boolStr(changed))
		if rep, ok := e.shardPol.(ShardBatchReporter); ok {
			batch, uses := rep.ShardBatchStats(i)
			sp.SetInt("batch", int64(batch))
			sp.SetInt("scratch.uses", int64(uses))
		}
		sp.End()
	}
	return nil
}

// boolStr avoids a strconv import at the two span call sites.
func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// mergeContracts assembles the observer-facing per-ID contract map from
// the dense shard slots: a full rewrite after a view rebuild, and only
// the changed shards' entries otherwise.
func (e *Engine) mergeContracts(st *roundState, rebuilt bool) map[string]*contract.PiecewiseLinear {
	if e.merged == nil {
		e.merged = make(map[string]*contract.PiecewiseLinear, len(st.agents))
		rebuilt = true
	}
	if rebuilt {
		clear(e.merged)
	} else {
		// Structural leavers are gone from every shard view; their map
		// entries would otherwise linger (shards report them neither
		// changed nor dirty).
		for _, id := range e.scope.leaves {
			delete(e.merged, id)
		}
	}
	for si := range e.shards {
		sr := &e.shards[si]
		if !rebuilt && !sr.changed {
			// Patch-route shards report changed=false, but their dirty
			// slots' contracts moved — fix up just those entries.
			for _, j := range sr.dirty {
				if c := sr.contracts[j]; c != nil {
					e.merged[sr.sh.Agents[j].ID] = c
				} else {
					delete(e.merged, sr.sh.Agents[j].ID)
				}
			}
			continue
		}
		for i, a := range sr.sh.Agents {
			if c := sr.contracts[i]; c != nil {
				e.merged[a.ID] = c
			} else if !rebuilt {
				delete(e.merged, a.ID)
			}
		}
	}
	return e.merged
}

// respondShards computes the round's best responses and returns the
// summed worker utility. Dirty shards (new views, changed contracts,
// replaced outcome buffer) respond on the pool; a fully warm round —
// every shard's retained outcomes already exact — skips the stage.
// Outcomes land in each agent's global ID-order slot, so the merge order
// is the same for every shard count.
func (e *Engine) respondShards(ctx context.Context, st *roundState) (float64, error) {
	if e.cfg.Responder != nil {
		return e.respondHook(st)
	}
	fromMap := e.shardPol == nil
	dirty := 0
	for i := range e.shards {
		if fromMap {
			// Map-route contracts carry no change signal: respond every
			// round.
			e.shards[i].outsOK = false
		}
		if !e.shards[i].outsOK || len(e.shards[i].dirty) > 0 {
			dirty++
		}
	}
	if dirty == 0 {
		return e.sumShardUtility(), nil
	}
	if dirty > 1 && len(e.shards) > 1 {
		if err := e.fanOut(ctx, st.r, len(e.shards), func(i int) error {
			return e.respondShard(ctx, st, i)
		}); err != nil {
			return 0, err
		}
	} else {
		for i := range e.shards {
			if err := e.respondShard(ctx, st, i); err != nil {
				return 0, err
			}
		}
	}
	return e.sumShardUtility(), nil
}

// respondShard computes one dirty shard's best responses (clean shards
// return immediately), deduplicating through the shard's memo segment.
// Shards whose outcomes are retained but carry sparse-drift dirty slots
// take the patch route: only those slots' outcomes are recomputed.
func (e *Engine) respondShard(ctx context.Context, st *roundState, i int) error {
	sr := &e.shards[i]
	if sr.outsOK && len(sr.dirty) == 0 {
		return nil
	}
	var t telemetry.Timer
	if st.timed {
		t = telemetry.StartTimer()
	}
	var sp *spans.Span
	var hits0, misses0 uint64
	if st.stageSpan != nil {
		sp = st.stageSpan.StartChild("engine.shard.respond")
		sp.SetInt("shard", int64(i))
		sp.SetInt("agents", int64(len(sr.sh.Agents)))
		sp.SetAttr("drift", e.scope.rule.String())
		if sr.outsOK {
			sp.SetAttr("route", "patch")
			sp.SetInt("dirty", int64(len(sr.dirty)))
		} else {
			sp.SetAttr("route", "solve")
		}
		if e.cfg.Memo != nil {
			ms := e.cfg.Memo.Stats()
			hits0, misses0 = ms.Hits, ms.Misses
		}
	}
	var err error
	if sr.outsOK {
		err = e.respondShardPatch(sr, st)
	} else {
		err = e.respondShardSolve(ctx, sr, st)
	}
	if sp != nil {
		if e.cfg.Memo != nil {
			// Shared atomics: deltas are attribution-approximate under the
			// concurrent fan-out, exact when shards run sequentially.
			ms := e.cfg.Memo.Stats()
			sp.SetInt("memo.hits", int64(ms.Hits-hits0))
			sp.SetInt("memo.misses", int64(ms.Misses-misses0))
		}
		sp.End()
	}
	if err != nil {
		return err
	}
	// Retained outcomes are exact until the view or the contracts change —
	// but only the dense route can see contracts change (the changed
	// report); map-route shards re-mark dirty every round above.
	sr.outsOK = true
	sr.dirty = sr.dirty[:0]
	if st.timed {
		e.m.shardRespond.Observe(t.Seconds())
	}
	return nil
}

// respondShardPatch refreshes exactly the shard's dirty outcome slots —
// the agents the sparse-drift route re-pointed at already-cached designs
// — and re-folds the shard's worker-utility sum from the per-slot
// breakdown, so the gauge matches a full recompute bit for bit.
func (e *Engine) respondShardPatch(sr *shardRun, st *roundState) error {
	outs := st.round.Outcomes
	for _, j := range sr.dirty {
		a := sr.sh.Agents[j]
		c := sr.contracts[j]
		oc := &outs[sr.sh.Global[j]]
		*oc = AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: sr.sh.Weights[j]}
		if c == nil {
			oc.Excluded = true
			sr.wuSlots[j] = 0
			continue
		}
		key := sr.sh.FPs[j].DesignKey
		var resp worker.Response
		var hit bool
		if sr.memoSeg != nil {
			resp, hit = sr.memoSeg.Get(key, c)
		}
		if !hit {
			var err error
			resp, err = a.BestResponse(c, e.pop.Part)
			if err != nil {
				return fmt.Errorf("engine: agent %s round %d: %w", a.ID, st.r, err)
			}
			if sr.memoSeg != nil {
				sr.memoSeg.Put(key, c, resp)
			}
		}
		sr.wuSlots[j] = fillResponse(oc, resp)
	}
	var wu float64
	for _, u := range sr.wuSlots {
		wu += u
	}
	sr.wu = wu
	return nil
}

// respondShardSolve is the per-shard respond loop: each distinct
// (design key, contract) pair resolves once — memo segment first, then
// BestResponse — reading the shard's indexed views (no string-map
// lookups) and writing outcomes to pre-assigned global slots. Agents
// arrive ID-sorted, so archetypes are contiguous and a struct compare
// against the previous key skips the map for entire runs. Pending misses
// solve inline — shard-level parallelism comes from the pool — except on
// a lone shard, which has no pool above it and fans them out instead.
func (e *Engine) respondShardSolve(ctx context.Context, sr *shardRun, st *roundState) error {
	s := &sr.scratch
	if s.keys == nil {
		s.keys = make(map[respondKey]int32, 16)
	} else {
		clear(s.keys)
	}
	s.resps = s.resps[:0]
	s.slots = s.slots[:0]
	s.pend = s.pend[:0]

	outs := st.round.Outcomes
	fromMap := e.shardPol == nil
	var lastKey respondKey
	lastSlot := int32(-1)
	for i, a := range sr.sh.Agents {
		var c *contract.PiecewiseLinear
		if fromMap {
			c = st.contracts[a.ID]
		} else {
			c = sr.contracts[i]
		}
		oc := &outs[sr.sh.Global[i]]
		*oc = AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: sr.sh.Weights[i]}
		if c == nil {
			oc.Excluded = true
			s.slots = append(s.slots, -1)
			continue
		}
		key := respondKey{key: sr.sh.FPs[i].DesignKey, c: c}
		if lastSlot >= 0 && key == lastKey {
			s.slots = append(s.slots, lastSlot)
			continue
		}
		slot, seen := s.keys[key]
		if !seen {
			slot = int32(len(s.resps))
			s.keys[key] = slot
			var resp worker.Response
			var hit bool
			if sr.memoSeg != nil {
				resp, hit = sr.memoSeg.Get(key.key, key.c)
			}
			if hit {
				s.resps = append(s.resps, resp)
			} else {
				s.resps = append(s.resps, worker.Response{})
				s.pend = append(s.pend, pendResponse{slot: slot, i: int32(i), c: c})
			}
		}
		lastKey, lastSlot = key, slot
		s.slots = append(s.slots, slot)
	}

	if len(s.pend) > 0 {
		if err := e.solvePending(ctx, sr, st.r); err != nil {
			return err
		}
	}

	na := len(sr.sh.Agents)
	if cap(sr.wuSlots) < na {
		sr.wuSlots = make([]float64, na)
	}
	sr.wuSlots = sr.wuSlots[:na]
	var wu float64
	for i := range sr.sh.Agents {
		slot := s.slots[i]
		if slot < 0 {
			sr.wuSlots[i] = 0
			continue
		}
		u := fillResponse(&outs[sr.sh.Global[i]], s.resps[slot])
		sr.wuSlots[i] = u
		wu += u
	}
	sr.wu = wu
	return nil
}

// solvePending computes the shard's memo misses, each into its own
// response slot, then publishes them to the memo segment (single-owner,
// so only after any fan-out has joined).
func (e *Engine) solvePending(ctx context.Context, sr *shardRun, r int) error {
	s := &sr.scratch
	solve := func(pi int) error {
		p := &s.pend[pi]
		a := sr.sh.Agents[p.i]
		resp, err := a.BestResponse(p.c, e.pop.Part)
		if err != nil {
			return fmt.Errorf("engine: agent %s round %d: %w", a.ID, r, err)
		}
		s.resps[p.slot] = resp
		return nil
	}
	if n := len(s.pend); sr.sh.Solo && n > 1 {
		// One contiguous block per worker: a best response is too cheap
		// to hand out one at a time.
		par := min(runtime.GOMAXPROCS(0), n)
		if err := e.fanOut(ctx, r, par, func(w int) error {
			for pi := w * n / par; pi < (w+1)*n/par; pi++ {
				if err := solve(pi); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	} else {
		for pi := range s.pend {
			if err := solve(pi); err != nil {
				return err
			}
		}
	}
	if sr.memoSeg != nil {
		for _, p := range s.pend {
			sr.memoSeg.Put(sr.sh.FPs[p.i].DesignKey, p.c, s.resps[p.slot])
		}
	}
	return nil
}

// sumShardUtility folds the per-shard worker-utility sums in shard order.
// (The association depends on the shard count, so the worker-utility
// gauge may differ in the last ulp between shard counts; the ledger
// itself settles in one sequential global pass and stays byte-identical.)
func (e *Engine) sumShardUtility() float64 {
	var wu float64
	for i := range e.shards {
		wu += e.shards[i].wu
	}
	return wu
}

// respondHook runs a custom Responder shard by shard, in shard order and
// never concurrently, so a Responder need not be safe for concurrent
// calls. Hooks are round-dependent, so there is no warm skip.
func (e *Engine) respondHook(st *roundState) (float64, error) {
	for i := range e.shards {
		if err := e.respondShardHook(st, i); err != nil {
			return 0, err
		}
	}
	return e.sumShardUtility(), nil
}

// respondShardHook runs the Responder over one shard.
func (e *Engine) respondShardHook(st *roundState, i int) error {
	sr := &e.shards[i]
	sr.outsOK = false
	sr.dirty = sr.dirty[:0] // the hook recomputes every slot anyway
	outs := st.round.Outcomes
	var wu float64
	for j, a := range sr.sh.Agents {
		var c *contract.PiecewiseLinear
		if e.shardPol != nil {
			c = sr.contracts[j]
		} else {
			c = st.contracts[a.ID]
		}
		oc := &outs[sr.sh.Global[j]]
		*oc = AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: sr.sh.Weights[j]}
		if c == nil {
			oc.Excluded = true
			continue
		}
		y, err := e.cfg.Responder(st.r, a, c, e.pop.Part)
		if err != nil {
			return fmt.Errorf("engine: responder for %s round %d: %w", a.ID, st.r, err)
		}
		y = clampEffort(y, a, e.pop.Part)
		q := a.Psi.Eval(y)
		oc.Effort = y
		oc.Feedback = q
		oc.Compensation = c.Eval(q)
		wu += a.Utility(c, y)
	}
	sr.wu = wu
	return nil
}
