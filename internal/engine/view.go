package engine

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// This file is the engine's design and respond stages. The paper's
// decomposition result (§IV-B) makes both contract design and best
// responses separable per worker, so each stage runs once per round over
// the engine's one ID-sorted view and parallelizes only its costly part:
// distinct design keys that miss the cache build their menus across
// GOMAXPROCS (ViewDesigner), and best responses the memo cannot serve
// solve in blocks across GOMAXPROCS (solvePending). Settlement remains one
// sequential pass, so float sums never depend on the worker count.
// Outcomes are written to each agent's view position, and a structural
// splice moves them, the indexed columns, and the contract and utility
// slots with the view.

// View is the round pipeline's view of the population, as a ViewPolicy
// receives it: the ID-sorted agents, with every per-agent datum the hot
// loop needs — weight, malice estimate, design key — carried as an indexed
// slice aligned with Agents, so design never touches the population's
// string-keyed maps. An agent's design fingerprint is {Key(j), pop.Mu,
// Weights[j]}.
type View struct {
	// Epoch identifies the population view: it moves on every full view
	// rebuild and on every scoped refresh that invalidates the policy's
	// plan. Epochs come from one process-wide counter, so no two views —
	// of one engine or of two engines sharing a policy — ever share one;
	// consumers that cache a plan (ViewDesigner) key it on Epoch.
	Epoch uint64
	// Agents is the engine's ID-sorted population view.
	Agents []*worker.Agent
	// Weights is the indexed view of Population.Weights for Agents.
	Weights []float64
	// Malice is the indexed view of Population.MaliceProb for Agents
	// (zero for agents with no entry, matching map-lookup semantics).
	Malice []float64
	// Keys holds each agent's design key as an id into the engine's key
	// table (see Key), written when the slot is and shared by the design
	// and respond stages.
	Keys []int32

	table *keyTable // the engine's key table, which Keys index
}

// Key returns the design key of Agents[j].
func (v *View) Key(j int) DesignKey { return v.table.keys[v.Keys[j]] }

// viewEpochs mints every View.Epoch.
var viewEpochs atomic.Uint64

// ViewPolicy is implemented by policies that design over the engine's
// indexed view — the fast path of the round pipeline. ViewContracts
// fills dst[i] with the contract for v.Agents[i] (nil excludes the agent
// this round) and reports whether any entry changed since its previous
// call for this epoch; false on a view that did not move lets the engine
// skip the respond stage outright, as its retained outcomes are already
// this round's exact values. Policies that implement only Policy design
// through the whole-population Contracts call.
//
// A ViewPolicy's contract for an agent must be a pure function of the
// agent's design fingerprint — no other population, round, or view state
// feeds it — and, with Config.Cache set, the pick of the cached menu for
// its design key (as DynamicPolicy's ViewDesigner serves it). That
// contract is the engine's sparse-drift patch route: when a
// Population.Touch scope arrives and a touched agent's design key
// already resolves in the cache, the engine serves its contract straight
// from the menu and refreshes only its outcome slot, leaving the designer
// plan, warm validation, and every untouched agent's retained outcome in
// place. Agents whose key misses the cache take the epoch-bump route
// (full re-plan and respond), so the route never changes results — only
// how much of the view is recomputed.
type ViewPolicy interface {
	Policy
	ViewContracts(ctx context.Context, pop *Population, v *View, dst []*contract.PiecewiseLinear) (changed bool, err error)
}

// BatchReporter is an opt-in interface for ViewPolicies that route cold
// designs through the batched solver (core.DesignInto over a retained
// core.Scratch). After a ViewContracts call, BatchStats reports the
// number of subproblems the last design batch carried (0 on a fully warm
// round) and the cumulative use count of the retained scratch — evidence
// the flat arrays are actually being reused rather than reallocated.
// Traced rounds attach both to the "engine.stage.design" span.
type BatchReporter interface {
	BatchStats() (batch int, scratchUses uint64)
}

// buildView rebuilds the policy's view over the freshly sorted agents:
// a new epoch, the indexed columns, the design keys counted into the reset
// table, and empty contract slots.
func (e *Engine) buildView() {
	n := len(e.agents)
	v := &e.view
	v.Epoch = viewEpochs.Add(1)
	v.Agents = e.agents
	v.table = &e.keys
	v.Weights = slices.Grow(v.Weights[:0], n)
	v.Malice = slices.Grow(v.Malice[:0], n)
	v.Keys = slices.Grow(v.Keys[:0], n)
	e.keys.reset()
	// Archetype populations list long runs of equal design keys in ID
	// order: a run costs one table lookup.
	var runKey DesignKey
	runID := int32(-1)
	for _, a := range e.agents {
		key := DesignKeyOf(a, e.pop.Part)
		if runID >= 0 && key == runKey {
			e.keys.counts[runID]++
		} else {
			runKey, runID = key, e.keys.ref(&key)
		}
		v.Weights = append(v.Weights, e.pop.Weights[a.ID])
		v.Malice = append(v.Malice, e.pop.MaliceProb[a.ID])
		v.Keys = append(v.Keys, runID)
	}
	clear(e.contracts[:cap(e.contracts)]) // hold no contract past the view
	e.contracts = slices.Grow(e.contracts[:0], n)[:n]
	e.outsOK, e.changed = false, false
	e.dirty = e.dirty[:0]
}

// refreshViewSlot refreshes the touched agent at view position j —
// weight, malice, design key (refcounted) — and routes its contract.
// Under a ViewPolicy whose design key already resolves in the menu
// cache, the contract slot is patched with the menu's pick and only
// the outcome slot is marked dirty — the view keeps its epoch, the
// designer plan, and every other retained outcome (the patch route).
// Otherwise the view takes the refresh's epoch, forcing the designer plan
// and retained outcomes to revalidate in full (the fallback route).
func (e *Engine) refreshViewSlot(id string, j int, epoch uint64, canPatch bool) {
	v := &e.view
	a := e.agents[j]
	w := e.pop.Weights[id]
	v.Weights[j] = w
	v.Malice[j] = e.pop.MaliceProb[id]
	key := DesignKeyOf(a, e.pop.Part)
	if old := v.Keys[j]; key != e.keys.keys[old] {
		v.Keys[j] = e.keys.ref(&key)
		e.keys.release(old)
	}
	if canPatch {
		if c := e.patchContract(&key, w); c != nil {
			e.contracts[j] = c
			e.dirty = append(e.dirty, int32(j))
			return
		}
	}
	e.bumpEpoch(epoch)
}

// bumpEpoch moves the view to the refresh's epoch (the fallback route):
// the policy re-plans and every outcome is recomputed.
func (e *Engine) bumpEpoch(epoch uint64) {
	if e.view.Epoch != epoch {
		e.view.Epoch = epoch
		e.outsOK = false
	}
}

// patchContract is the patch route's design: the contract the cached
// menu for key offers at weight w, or nil when the key misses the cache
// (or its menu carries a construction error), in which case the caller
// takes the epoch-bump route and the policy's fill counts the miss and
// builds the menu (or reports the error). A served patch counts one cache
// hit.
func (e *Engine) patchContract(key *DesignKey, w float64) *contract.PiecewiseLinear {
	m, ok := e.cfg.Cache.peek(*key)
	if !ok {
		return nil
	}
	c, err := m.ContractFor(core.Config{Part: e.pop.Part, Mu: e.pop.Mu, W: w})
	if err != nil {
		return nil // the fill reports it
	}
	e.cfg.Cache.hits.Add(1)
	return c
}

// removeDeadKeys sweeps the refresh's dead design keys from the key table
// and evicts them from the menu cache and respond memo. A key that died
// and was re-minted in the same refresh (one agent's leave, another's
// join) is still live and stays — evicting it would only cost a rebuild.
func (e *Engine) removeDeadKeys() {
	dead := e.keys.sweep(e.deadKeys[:0])
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

// refreshStructural applies a declared scope to the retained view in
// place: joins and leaves — already resolved and ID-sorted by
// prepareStructural — are spliced in (spliceView), then the scope's
// plain-touched agents refresh their slots at their spliced view
// positions. Design keys are refcounted across the view, so only keys
// whose last holder drifted or left are evicted from the design cache and
// respond memo; shared designs survive a partial drift.
func (e *Engine) refreshStructural() {
	var t telemetry.Timer
	if e.m != nil {
		t = telemetry.StartTimer()
	}
	epoch := viewEpochs.Add(1)
	canPatch := e.viewPol != nil && e.cfg.Cache != nil
	touched := len(e.structJoins)+len(e.scope.leaves) > 0
	if touched {
		e.spliceView(epoch, canPatch)
	}
	// Joiners were handled at their insertion, and touched leavers are
	// gone.
	for k, id := range e.scope.ids {
		if j := e.touchPos[k]; j >= 0 {
			e.refreshViewSlot(id, int(j), epoch, canPatch)
			touched = true
		}
	}
	e.removeDeadKeys()
	if e.m != nil {
		if touched {
			e.m.driftRefreshed.Inc()
		}
		e.m.driftRebuild.Observe(t.Seconds())
	}
}

// stageDesign resolves the round's view, then asks the policy for
// contracts into the dense slots: one ViewContracts call over the indexed
// view, or, for a plain Policy, the whole-population Contracts call, whose
// map fills the slots once and is what observers receive. Traced rounds
// annotate the stage's span with the view's size, the round's drift
// classification, the design cache's hit/miss deltas across the call, the
// change report, and (for a BatchReporter) the solver batch.
func (e *Engine) stageDesign(ctx context.Context, st *roundState) error {
	rebuilt := e.ensureView()
	st.agents = e.agents
	st.wantContracts = e.wantsContracts(st.r)
	if e.viewPol == nil {
		contracts, err := e.cfg.Policy.Contracts(ctx, e.pop)
		if err != nil {
			return fmt.Errorf("engine: policy %s round %d: %w", e.cfg.Policy.Name(), st.r, err)
		}
		st.contracts = contracts
		for i, a := range e.agents {
			e.contracts[i] = contracts[a.ID]
		}
		// A map carries no change signal: respond every round.
		e.outsOK = false
		return nil
	}
	sp := st.stageSpan
	var hits0, misses0 uint64
	if sp != nil && e.cfg.Cache != nil {
		cs := e.cfg.Cache.Stats()
		hits0, misses0 = cs.Hits, cs.Misses
	}
	changed, err := e.viewPol.ViewContracts(ctx, e.pop, &e.view, e.contracts)
	if err != nil {
		return fmt.Errorf("engine: policy %s round %d: %w", e.cfg.Policy.Name(), st.r, err)
	}
	e.changed = changed
	// A patched view (dirty slots, outcomes still retained) keeps outsOK
	// through a changed report: a ViewPolicy is fingerprint-pure, so a
	// refill resolves every untouched slot to a value-identical contract,
	// and the dirty slots are recomputed by the patch respond.
	if changed && len(e.dirty) == 0 {
		e.outsOK = false
	}
	if sp != nil {
		sp.SetInt("agents", int64(len(e.agents)))
		sp.SetAttr("drift", e.scope.rule.String())
		if e.cfg.Cache != nil {
			cs := e.cfg.Cache.Stats()
			sp.SetInt("cache.hits", int64(cs.Hits-hits0))
			sp.SetInt("cache.misses", int64(cs.Misses-misses0))
		}
		sp.SetAttr("changed", strconv.FormatBool(changed))
		if rep, ok := e.viewPol.(BatchReporter); ok {
			batch, uses := rep.BatchStats()
			sp.SetInt("batch", int64(batch))
			sp.SetInt("scratch.uses", int64(uses))
		}
	}
	// The per-ID map exists only for observers that want it (OnContracts);
	// the respond stage reads the dense slots directly. A round in which
	// no observer wants it drops the map, so the next round that does
	// rebuilds it in full.
	if st.wantContracts {
		st.contracts = e.mergeContracts(rebuilt)
	} else {
		e.merged = nil
	}
	return nil
}

// mergeContracts assembles the observer-facing per-ID contract map from
// the dense slots: a full rewrite after a view rebuild or a changed
// report, and only the patched slots otherwise.
func (e *Engine) mergeContracts(rebuilt bool) map[string]*contract.PiecewiseLinear {
	if e.merged == nil {
		e.merged = make(map[string]*contract.PiecewiseLinear, len(e.agents))
		rebuilt = true
	}
	if rebuilt {
		clear(e.merged)
	} else {
		// Structural leavers are gone from the view; their map entries
		// would otherwise linger.
		for _, id := range e.scope.leaves {
			delete(e.merged, id)
		}
	}
	if !rebuilt && !e.changed {
		// A patched view reports changed=false, but its dirty slots'
		// contracts moved — fix up just those entries.
		for _, j := range e.dirty {
			if c := e.contracts[j]; c != nil {
				e.merged[e.agents[j].ID] = c
			} else {
				delete(e.merged, e.agents[j].ID)
			}
		}
		return e.merged
	}
	for i, a := range e.agents {
		if c := e.contracts[i]; c != nil {
			e.merged[a.ID] = c
		} else if !rebuilt {
			delete(e.merged, a.ID)
		}
	}
	return e.merged
}

// respond computes the round's best responses and returns the summed
// worker utility. A warm round — retained outcomes already exact, no
// dirty slot — skips the work; a patched view recomputes only its dirty
// slots; anything else solves the whole view. Traced rounds annotate the
// respond stage's span with the route taken and the memo's hit/miss
// deltas.
func (e *Engine) respond(ctx context.Context, st *roundState) (float64, error) {
	sp := st.stageSpan
	if sp != nil {
		sp.SetInt("agents", int64(len(e.agents)))
		sp.SetAttr("drift", e.scope.rule.String())
	}
	if e.cfg.Responder != nil {
		return e.respondHook(st)
	}
	patch := e.outsOK
	if patch && len(e.dirty) == 0 {
		sp.SetAttr("route", "skip")
		return e.wu, nil
	}
	var hits0, misses0 uint64
	if sp != nil {
		if patch {
			sp.SetAttr("route", "patch")
			sp.SetInt("dirty", int64(len(e.dirty)))
		} else {
			sp.SetAttr("route", "solve")
		}
		if e.cfg.Memo != nil {
			ms := e.cfg.Memo.Stats()
			hits0, misses0 = ms.Hits, ms.Misses
		}
	}
	var err error
	if patch {
		err = e.respondPatch(st)
	} else {
		err = e.respondSolve(ctx, st)
	}
	if sp != nil && e.cfg.Memo != nil {
		ms := e.cfg.Memo.Stats()
		sp.SetInt("memo.hits", int64(ms.Hits-hits0))
		sp.SetInt("memo.misses", int64(ms.Misses-misses0))
	}
	if err != nil {
		return 0, err
	}
	// Retained outcomes are exact until the view or the contracts change
	// (a changed report, or any plain-Policy round; see stageDesign).
	e.outsOK = true
	e.dirty = e.dirty[:0]
	return e.wu, nil
}

// respondPatch refreshes exactly the dirty outcome slots — the agents the
// sparse-drift route re-pointed at already-cached designs — and re-folds
// the worker-utility sum from the per-slot breakdown, so the gauge
// matches a full recompute bit for bit.
func (e *Engine) respondPatch(st *roundState) error {
	outs := st.round.Outcomes
	for _, j := range e.dirty {
		a := e.agents[j]
		c := e.contracts[j]
		oc := &outs[j]
		*oc = AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: e.view.Weights[j]}
		if c == nil {
			oc.Excluded = true
			e.wuSlots[j] = 0
			continue
		}
		key := e.keys.keys[e.view.Keys[j]]
		var resp worker.Response
		var hit bool
		if e.cfg.Memo != nil {
			resp, hit = e.cfg.Memo.Get(key, c)
		}
		if !hit {
			var err error
			resp, err = a.BestResponse(c, e.pop.Part)
			if err != nil {
				return fmt.Errorf("engine: agent %s round %d: %w", a.ID, st.r, err)
			}
			if e.cfg.Memo != nil {
				e.cfg.Memo.Put(key, c, resp)
			}
		}
		e.wuSlots[j] = fillResponse(oc, resp)
	}
	var wu float64
	for _, u := range e.wuSlots {
		wu += u
	}
	e.wu = wu
	return nil
}

// respondSolve is the full respond loop: each distinct (design key,
// contract) pair resolves once — memo first, then BestResponse — reading
// the indexed view (no string-map lookups) and writing outcomes to their
// view positions. Agents arrive ID-sorted, so archetypes are contiguous
// and a struct compare against the previous key skips the map for entire
// runs.
func (e *Engine) respondSolve(ctx context.Context, st *roundState) error {
	s := &e.rs
	if s.keys == nil {
		s.keys = make(map[slotKey]int32, 16)
	} else {
		clear(s.keys)
	}
	s.resps = s.resps[:0]
	s.slots = s.slots[:0]
	s.pend = s.pend[:0]

	outs := st.round.Outcomes
	var lastKey slotKey
	lastSlot := int32(-1)
	for i, a := range e.agents {
		c := e.contracts[i]
		oc := &outs[i]
		*oc = AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: e.view.Weights[i]}
		if c == nil {
			oc.Excluded = true
			s.slots = append(s.slots, -1)
			continue
		}
		key := slotKey{id: e.view.Keys[i], c: c}
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
			if e.cfg.Memo != nil {
				resp, hit = e.cfg.Memo.Get(e.keys.keys[key.id], c)
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
		if err := e.solvePending(ctx, st.r); err != nil {
			return err
		}
	}

	n := len(e.agents)
	e.wuSlots = slices.Grow(e.wuSlots[:0], n)[:n]
	var wu float64
	for i := range e.agents {
		slot := s.slots[i]
		if slot < 0 {
			e.wuSlots[i] = 0
			continue
		}
		u := fillResponse(&outs[i], s.resps[slot])
		e.wuSlots[i] = u
		wu += u
	}
	e.wu = wu
	return nil
}

// solvePending computes the round's memo misses, each into its own
// response slot — one contiguous block per worker across GOMAXPROCS, as a
// best response is too cheap to hand out one at a time — then publishes
// them to the memo once the fan-out has joined.
func (e *Engine) solvePending(ctx context.Context, r int) error {
	s := &e.rs
	solve := func(pi int) error {
		p := &s.pend[pi]
		a := e.agents[p.i]
		resp, err := a.BestResponse(p.c, e.pop.Part)
		if err != nil {
			return fmt.Errorf("engine: agent %s round %d: %w", a.ID, r, err)
		}
		s.resps[p.slot] = resp
		return nil
	}
	if n := len(s.pend); n > 1 {
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
	} else if err := solve(0); err != nil {
		return err
	}
	if e.cfg.Memo != nil {
		for _, p := range s.pend {
			e.cfg.Memo.Put(e.keys.keys[e.view.Keys[p.i]], p.c, s.resps[p.slot])
		}
	}
	return nil
}

// respondHook runs a custom Responder over the view in ID order, never
// concurrently, so a Responder need not be safe for concurrent calls.
// Hooks are round-dependent, so there is no warm skip.
func (e *Engine) respondHook(st *roundState) (float64, error) {
	e.outsOK = false
	e.dirty = e.dirty[:0] // the hook recomputes every slot anyway
	st.stageSpan.SetAttr("route", "hook")
	outs := st.round.Outcomes
	var wu float64
	for j, a := range e.agents {
		c := e.contracts[j]
		oc := &outs[j]
		*oc = AgentOutcome{AgentID: a.ID, Class: a.Class, Size: a.Size, Weight: e.view.Weights[j]}
		if c == nil {
			oc.Excluded = true
			continue
		}
		y, err := e.cfg.Responder(st.r, a, c, e.pop.Part)
		if err != nil {
			return 0, fmt.Errorf("engine: responder for %s round %d: %w", a.ID, st.r, err)
		}
		y = clampEffort(y, a, e.pop.Part)
		q := a.Psi.Eval(y)
		oc.Effort = y
		oc.Feedback = q
		oc.Compensation = c.Eval(q)
		wu += a.Utility(c, y)
	}
	e.wu = wu
	return wu, nil
}
