// Package engine is the single round-loop behind every marketplace
// simulation in this repository. The paper's decomposition result (§IV-B)
// makes contract design separate per worker/community, and real
// populations are drawn from a handful of behavioural archetypes — so the
// engine pairs the loop with a deduplicating design cache: agents sharing
// a design fingerprint (class, ψ, β, ω, reservation, partition, μ, w) cost
// one design solve per round, and an unchanged fingerprint across
// rounds costs zero.
//
// Layering (see DESIGN.md "Engine architecture"):
//
//	loop (Engine.Run) → policy (Policy / Designer) → cache (Cache) → solver fan-out
//
// internal/platform.Simulate and internal/dynamics.Run are thin adapters
// over this package; callers that want streaming instead of accumulated
// ledgers attach Observers.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// ErrBadPopulation is returned when a population fails validation.
var ErrBadPopulation = errors.New("engine: invalid population")

// Population is the fixed cast of a simulation: the agents, the requester's
// per-agent feedback weights, malice estimates, and the market parameters.
//
// Engines read it through a cached indexed view (see View). An engine
// with a Config.Drift hook rebuilds the view each round the hook declares
// nothing narrower, so undeclared mutations are seen; an engine without
// one keeps its view, and a mutation — in an observer, or between Step
// calls — stays invisible until Bump, Touch, TouchJoin, or TouchLeave
// declares it.
//
// Add and Remove change membership in O(1) and declare it themselves.
// They keep the population's ID index (see Lookup) current, and the
// engine and the serving layer resolve agent IDs through it.
type Population struct {
	// Agents are individual workers plus one meta-agent per collusive
	// community.
	Agents []*worker.Agent
	// Weights maps agent ID to the requester's feedback weight w_i
	// (Eq. (5), already evaluated).
	Weights map[string]float64
	// MaliceProb maps agent ID to the estimated malice probability
	// e_i^mal; policies that exclude workers threshold on it.
	MaliceProb map[string]float64
	// Part is the effort-axis partition contracts are designed on.
	Part effort.Partition
	// Mu is the requester's compensation weight μ.
	Mu float64

	// generation counts structural mutations (see Bump). The engine's
	// cached agent view keys off it when no Drift is configured.
	generation uint64

	// index maps agent ID to its position in Agents: the one ID index the
	// engine and the serving layer both read (see Lookup). Validate builds
	// it, Add and Remove keep it current, and Lookup repairs what direct
	// edits of Agents leave stale. Entries are hints: every hit is
	// confirmed against Agents. The trusted part is the suffix
	// [indexLo, indexN): every agent there is indexed at its position, and
	// indexN is the length of Agents the index last saw. A full index
	// (indexLo == 0, indexN == len(Agents)) answers a miss without a scan.
	index   map[string]int32
	indexLo int
	indexN  int

	// Drift-scope state (see Touch): the set of agent IDs declared
	// touched since the last engine consumption, or touchedAll when a
	// Bump escalated the scope to the whole population. scopePending
	// records that any declaration happened at all — an empty Touch()
	// still marks a round as "scoped, nothing touched". joined and left
	// carry the structural halves of the scope (TouchJoin/TouchLeave).
	touched      map[string]struct{}
	joined       map[string]struct{}
	left         map[string]struct{}
	touchedAll   bool
	scopePending bool
	// scopeReads counts takeScope calls, so an undo can tell whether an
	// engine already consumed the declaration it retracts.
	scopeReads uint64
}

// Bump advances the population's generation counter and declares a
// whole-population drift scope. Call it after mutating the Agents slice
// in a way no sparse declaration expresses (reordering, bulk
// replacement) outside a Config.Drift hook, so engines with no Drift
// configured rebuild their cached ID-sorted agent view; declared adds
// and removes have sparse declarations of their own (TouchJoin,
// TouchLeave). Bump is also the escape hatch for mutations the sparse
// scope cannot express — most notably replacing an agent object under an
// existing ID, which Touch does not declare.
// Weights, malice probabilities, and agent parameters mutated in place
// outside a Drift hook likewise need a Bump (or a Touch) before the
// engine observes them.
func (p *Population) Bump() {
	p.touchedAll = true
	p.scopePending = true
	p.generation++
	p.staleIndex()
}

// Touch declares a sparse drift scope: exactly the agents named were
// mutated since the engine last looked (weights, malice probability, or
// in-place agent parameters — and, for structural edits, the IDs that
// were added to or removed from Agents). Engines consume the accumulated
// scope at the top of their next round: a scope confined to existing
// agents refreshes only their view slots, keeping every untouched agent's
// retained outcome, while a scope naming an unknown ID escalates to the
// classic full rebuild.
//
// Touch is cumulative until consumed — several drifts between rounds
// union their scopes — and advances the generation counter like Bump, so
// secondary consumers of the same population (a second engine) still
// observe the mutation through the generation compare and rebuild
// conservatively.
//
// The one mutation Touch does not express is replacing an agent object
// under an ID that is still present: the engine sees a different object
// in its retained view and escalates the round to the full rebuild, so
// declare it with Bump. Membership changes — an ID added to or removed
// from Agents — have their own declarations: Add and Remove, or
// TouchJoin and TouchLeave after a direct edit.
func (p *Population) Touch(ids ...string) {
	p.declare(&p.touched, ids...)
}

// declare adds ids to one of the scope's sets (unless a Bump already
// widened the scope to everything), marks the scope pending, and advances
// the generation counter.
func (p *Population) declare(set *map[string]struct{}, ids ...string) {
	if !p.touchedAll {
		if *set == nil {
			*set = make(map[string]struct{}, len(ids))
		}
		for _, id := range ids {
			(*set)[id] = struct{}{}
		}
	}
	p.scopePending = true
	p.generation++
}

// TouchJoin declares a structural drift scope: exactly the agents named
// were appended to Agents (with Weights and, optionally, MaliceProb
// entries) since the engine last looked. A declared join splices the
// engine's cached ID-sorted view in place; every other agent keeps its
// retained outcome (moved with its view position) and warm state. Like Touch it is cumulative until consumed and advances the
// generation counter, so secondary consumers still rebuild conservatively.
//
// A TouchJoin for an ID that is already present (or otherwise
// inconsistent with the engine's retained view) is detected at
// consumption and escalates the round to the classic full rebuild — a
// misdeclaration costs performance, never correctness the engine can see.
//
// Agents added through Add are declared already; TouchJoin is for
// appends made directly to Agents, and it tells the ID index (see
// Lookup) that Agents moved under it.
func (p *Population) TouchJoin(ids ...string) {
	p.declare(&p.joined, ids...)
	p.staleIndex()
}

// TouchLeave declares the structural counterpart of TouchJoin: exactly
// the agents named were removed from Agents (and their Weights/MaliceProb
// entries deleted) since the engine last looked. A declared leave splices
// the agent out of the cached view and its outcome out of the outcome
// buffer; every remaining agent keeps its retained outcome (moved with
// its view position) and warm state. Cumulative and generation-advancing, like
// Touch; inconsistent declarations escalate to the full rebuild. Like
// TouchJoin it is for direct edits of Agents (Remove declares its own);
// it also drops the leavers from the ID index.
func (p *Population) TouchLeave(ids ...string) {
	p.declare(&p.left, ids...)
	for _, id := range ids {
		delete(p.index, id)
	}
	p.staleIndex()
}

// takeScope consumes the accumulated drift scope, appending the touched,
// joined, and left IDs into the reused dst slices (returned re-sliced).
// pending reports whether any declaration happened since the last
// consumption; all reports a Bump (the id slices are then meaningless).
// At most one consumer sees a given scope — engines sharing a population
// fall back to the generation compare.
func (p *Population) takeScope(dst, jdst, ldst []string) (ids, joins, leaves []string, all, pending bool) {
	dst, jdst, ldst = dst[:0], jdst[:0], ldst[:0]
	p.scopeReads++
	if !p.scopePending {
		return dst, jdst, ldst, false, false
	}
	all = p.touchedAll
	if !all {
		for id := range p.touched {
			dst = append(dst, id)
		}
		for id := range p.joined {
			jdst = append(jdst, id)
		}
		for id := range p.left {
			ldst = append(ldst, id)
		}
	}
	clear(p.touched)
	clear(p.joined)
	clear(p.left)
	p.touchedAll = false
	p.scopePending = false
	return dst, jdst, ldst, all, true
}

// Generation returns the current generation counter value.
func (p *Population) Generation() uint64 { return p.generation }

// Validate checks internal consistency: at least one agent, a positive
// finite μ, no nil agents, no empty or duplicate agent IDs (the server
// mints sessions from untrusted payloads, and an empty ID would collide
// with the zero-value map lookups used throughout), per-agent validity, a finite
// weight for every agent, malice probabilities within [0, 1], and no
// orphan Weights/MaliceProb entries whose IDs match no agent (orphans are
// almost always a drift hook that removed an agent but not its map
// entries — a stale-view hazard for anything holding indexed views).
// The duplicate check builds the ID index (see Lookup) as it goes, so a
// population that validates leaves with a full index.
func (p *Population) Validate() error {
	if len(p.Agents) == 0 {
		return fmt.Errorf("no agents: %w", ErrBadPopulation)
	}
	if err := p.checkMu(); err != nil {
		return err
	}
	if p.index == nil {
		p.index = make(map[string]int32, len(p.Agents))
	} else {
		clear(p.index)
	}
	// Nothing is trusted until the pass completes; a failed pass leaves
	// its entries as hints.
	p.indexLo, p.indexN = len(p.Agents), len(p.Agents)
	malice := 0 // agents with a MaliceProb entry
	for i, a := range p.Agents {
		if err := p.checkID(a); err != nil {
			return err
		}
		if _, dup := p.index[a.ID]; dup {
			return fmt.Errorf("duplicate agent %q: %w", a.ID, ErrBadPopulation)
		}
		p.index[a.ID] = int32(i)
		if err := p.validateAgent(a); err != nil {
			return err
		}
		if _, ok := p.MaliceProb[a.ID]; ok {
			malice++
		}
	}
	p.indexLo = 0
	// Every agent has a weight and the matched malice entries are counted,
	// so any surplus entry is an orphan; the scans only run on mismatch.
	if len(p.Weights) > len(p.Agents) {
		for id := range p.Weights {
			if _, ok := p.index[id]; !ok {
				return fmt.Errorf("weight for unknown agent %q: %w", id, ErrBadPopulation)
			}
		}
	}
	if len(p.MaliceProb) > malice {
		for id := range p.MaliceProb {
			if _, ok := p.index[id]; !ok {
				return fmt.Errorf("malice probability for unknown agent %q: %w", id, ErrBadPopulation)
			}
		}
	}
	return nil
}

// ValidateScope is Validate narrowed to what a declared drift can have
// changed: the population is not empty, μ is positive and finite, and
// each listed agent — the joiners and the touched agents — passes the
// per-agent checks (a non-nil agent with an ID, valid parameters, a
// finite weight, malice within [0, 1]). It skips Validate's O(population)
// pass: the membership invariants (unique IDs, no orphan map entries)
// move only through joins and leaves, which Add and Remove keep (the
// engine cross-checks direct-edit declarations against its view).
// Leavers need no check — their map entries left with them.
func (p *Population) ValidateScope(agents ...*worker.Agent) error {
	if len(p.Agents) == 0 {
		return fmt.Errorf("no agents: %w", ErrBadPopulation)
	}
	if err := p.checkMu(); err != nil {
		return err
	}
	for _, a := range agents {
		if err := p.checkID(a); err != nil {
			return err
		}
		if err := p.validateAgent(a); err != nil {
			return err
		}
	}
	return nil
}

// checkMu rejects a μ that is not positive and finite.
func (p *Population) checkMu() error {
	if !(p.Mu > 0) || math.IsInf(p.Mu, 0) {
		return fmt.Errorf("mu=%v: %w", p.Mu, ErrBadPopulation)
	}
	return nil
}

// checkID rejects a nil agent or one with an empty ID.
func (p *Population) checkID(a *worker.Agent) error {
	if a == nil {
		return fmt.Errorf("nil agent: %w", ErrBadPopulation)
	}
	if a.ID == "" {
		return fmt.Errorf("agent with empty ID: %w", ErrBadPopulation)
	}
	return nil
}

// validateAgent is the per-agent part of Validate: agent parameters,
// weight presence and finiteness, malice range.
func (p *Population) validateAgent(a *worker.Agent) error {
	if err := a.Validate(p.Part.YMax()); err != nil {
		return err
	}
	w, ok := p.Weights[a.ID]
	if !ok {
		return fmt.Errorf("agent %q has no weight: %w", a.ID, ErrBadPopulation)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("agent %q weight=%v: %w", a.ID, w, ErrBadPopulation)
	}
	if mp, ok := p.MaliceProb[a.ID]; ok && !(mp >= 0 && mp <= 1) {
		return fmt.Errorf("agent %q malice probability=%v: %w", a.ID, mp, ErrBadPopulation)
	}
	return nil
}

// Lookup returns the position in Agents of the agent with the given ID.
// Each hit is confirmed against Agents, so a stale index never answers
// wrong. A mismatch, or a miss the trusted part cannot answer, re-indexes
// Agents from the tail down — where appended agents sit — until the ID
// turns up; at worst that is one full pass, after which the index is full
// again and a miss is answered from the map.
//
// Add and Remove keep the index full, so on a population edited only
// through them (or edited directly only before Validate) Lookup never
// writes, and concurrent Lookups under the lock that orders edits are
// safe. A direct edit of Agents must be declared — Bump, TouchJoin,
// TouchLeave, as the engine already requires — before a miss is trusted
// again; one that changes len(Agents) is noticed without a declaration.
func (p *Population) Lookup(id string) (int, bool) {
	i, ok := p.index[id]
	if ok {
		if int(i) < len(p.Agents) && p.Agents[i] != nil && p.Agents[i].ID == id {
			return int(i), true
		}
		// A wrong entry means Agents moved under the index (an edit
		// nobody declared): trust none of it.
		delete(p.index, id)
		p.staleIndex()
	} else {
		p.syncIndex()
		if p.indexLo == 0 {
			return -1, false
		}
	}
	if p.index == nil {
		p.index = make(map[string]int32, len(p.Agents))
	}
	for p.indexLo > 0 {
		p.indexLo--
		a := p.Agents[p.indexLo]
		if a == nil {
			continue
		}
		p.index[a.ID] = int32(p.indexLo)
		if a.ID == id {
			return p.indexLo, true
		}
	}
	// Every agent is indexed again; drop the entries of agents that left
	// without a Remove or TouchLeave.
	if len(p.index) > len(p.Agents) {
		for k, i := range p.index {
			if int(i) >= len(p.Agents) || p.Agents[i] == nil || p.Agents[i].ID != k {
				delete(p.index, k)
			}
		}
	}
	return -1, false
}

// syncIndex distrusts the whole index when Agents changed length behind
// its back (an undeclared append or truncation).
func (p *Population) syncIndex() {
	if p.indexN != len(p.Agents) {
		p.staleIndex()
	}
}

// staleIndex marks every index entry a hint to be confirmed: direct edits
// of Agents may have moved any agent.
func (p *Population) staleIndex() {
	p.indexLo, p.indexN = len(p.Agents), len(p.Agents)
}

// declMark is the part of the drift scope a declaration changed, kept so
// its undo can retract it.
type declMark struct {
	reads uint64 // scopeReads before the declaration
	had   bool   // the ID was already in the set
}

// mark declares id into set and returns what its undo needs to retract
// the declaration.
func (p *Population) mark(set *map[string]struct{}, id string) declMark {
	_, had := (*set)[id]
	m := declMark{reads: p.scopeReads, had: had}
	p.declare(set, id)
	return m
}

// retract withdraws a declaration an undo reverts. If no engine has read
// the scope since, the ID leaves the set it joined; the scope stays
// pending with a moved generation, which engines read as a declared drift
// with nothing in it. If an engine has read it, the undo is a drift of
// its own and is declared as the inverse edit.
func (p *Population) retract(set, inverse *map[string]struct{}, id string, m declMark) {
	if p.scopeReads != m.reads {
		p.declare(inverse, id)
		return
	}
	if !m.had {
		delete(*set, id)
	}
}

// Add appends agent a with feedback weight w and malice probability
// malice, keeps the ID index full, and declares the join (as TouchJoin
// does). It rejects a nil agent, an empty ID, and an ID already present;
// parameter checks are left to Validate or ValidateScope. The undo it
// returns restores Agents, Weights, MaliceProb, and the index exactly and
// retracts the declaration; undos must run newest first, before any other
// edit of Agents.
func (p *Population) Add(a *worker.Agent, w, malice float64) (undo func(), err error) {
	if err := p.checkID(a); err != nil {
		return nil, err
	}
	if _, ok := p.Lookup(a.ID); ok {
		return nil, fmt.Errorf("duplicate agent %q: %w", a.ID, ErrBadPopulation)
	}
	if p.index == nil {
		p.index = make(map[string]int32)
	}
	if p.Weights == nil {
		p.Weights = make(map[string]float64)
	}
	if p.MaliceProb == nil {
		p.MaliceProb = make(map[string]float64)
	}
	n := len(p.Agents) // Lookup's miss synced indexN to it
	p.Agents = append(p.Agents, a)
	p.index[a.ID] = int32(n)
	p.indexN = n + 1
	oldW, hadW := p.Weights[a.ID]
	oldMal, hadMal := p.MaliceProb[a.ID]
	p.Weights[a.ID] = w
	p.MaliceProb[a.ID] = malice
	m := p.mark(&p.joined, a.ID)
	return func() {
		p.Agents[n] = nil
		p.Agents = p.Agents[:n]
		delete(p.index, a.ID)
		p.indexN, p.indexLo = n, min(p.indexLo, n)
		restoreEntry(p.Weights, a.ID, oldW, hadW)
		restoreEntry(p.MaliceProb, a.ID, oldMal, hadMal)
		p.retract(&p.joined, &p.left, a.ID, m)
	}, nil
}

// Remove deletes the agent with the given ID and its Weights and
// MaliceProb entries, and declares the leave (as TouchLeave does). The
// last agent moves into the vacated position: slice order carries no
// meaning (engines sort by ID), and the swap keeps Remove O(1). The undo
// it returns reverses the swap — Agents, Weights, MaliceProb, and the
// index come back exactly — and retracts the declaration; undos must run
// newest first, before any other edit of Agents.
func (p *Population) Remove(id string) (undo func(), err error) {
	i, ok := p.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("unknown agent %q: %w", id, ErrBadPopulation)
	}
	p.syncIndex()
	gone := p.Agents[i]
	last := len(p.Agents) - 1
	moved := p.Agents[last]
	p.Agents[i] = moved
	p.Agents[last] = nil
	p.Agents = p.Agents[:last]
	delete(p.index, id)
	if i != last && moved != nil {
		p.index[moved.ID] = int32(i)
	}
	p.indexN, p.indexLo = last, min(p.indexLo, last)
	w, hadW := p.Weights[id]
	mal, hadMal := p.MaliceProb[id]
	delete(p.Weights, id)
	delete(p.MaliceProb, id)
	m := p.mark(&p.left, id)
	return func() {
		p.Agents = append(p.Agents, moved)
		if i != last && moved != nil {
			p.index[moved.ID] = int32(last)
		}
		p.Agents[i] = gone
		p.index[id] = int32(i)
		p.indexN = last + 1
		restoreEntry(p.Weights, id, w, hadW)
		restoreEntry(p.MaliceProb, id, mal, hadMal)
		p.retract(&p.left, &p.joined, id, m)
	}, nil
}

// restoreEntry puts back a map entry as it was: v under id when it was
// present, no entry otherwise.
func restoreEntry(m map[string]float64, id string, v float64, had bool) {
	if had {
		m[id] = v
	} else {
		delete(m, id)
	}
}

// Policy produces one round's contracts. A nil contract for an agent means
// the agent is excluded this round: no payment, and its feedback is not
// counted in the requester's benefit.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Contracts returns the per-agent contract map for the coming round.
	Contracts(ctx context.Context, pop *Population) (map[string]*contract.PiecewiseLinear, error)
}

// CacheUser is implemented by policies that can route their contract
// design through a shared Cache. Engine wires Config.Cache into the policy
// at construction when the policy implements it.
type CacheUser interface {
	UseCache(*Cache)
}

// AgentOutcome is one agent's realized round outcome.
type AgentOutcome struct {
	// AgentID identifies the agent.
	AgentID string
	// Class is the agent's behavioural class.
	Class worker.Class
	// Size is 1 for individuals, the member count for communities.
	Size int
	// Excluded reports that the policy offered no contract.
	Excluded bool
	// Declined reports that the worker rejected the offered contract
	// (best achievable utility below the reservation).
	Declined bool
	// Effort, Feedback, Compensation are the agent's best response; zero
	// when excluded.
	Effort, Feedback, Compensation float64
	// Weight is the requester's w_i applied to the feedback.
	Weight float64
}

// Round aggregates one simulated round.
type Round struct {
	// Index is the 0-based round number.
	Index int
	// Outcomes lists per-agent results, ordered by agent ID. Inside an
	// Observer callback the slice aliases the engine's reusable backing
	// array — valid for the duration of the callback; copy it to retain
	// it across rounds (Ledger does, so []Round ledgers are stable).
	Outcomes []AgentOutcome
	// Benefit is Σ w_i·q_i over included agents.
	Benefit float64
	// Cost is Σ c_i over included agents.
	Cost float64
	// Utility is Benefit − μ·Cost (Eq. (7)).
	Utility float64
}

// TotalUtility sums the requester's utility over a ledger. A nil or empty
// ledger totals 0, and non-finite round utilities (NaN/±Inf, e.g. from a
// poisoned observer-fed ledger) are skipped so one bad round cannot turn
// the campaign total into NaN.
func TotalUtility(ledger []Round) float64 {
	var total float64
	for _, r := range ledger {
		if math.IsNaN(r.Utility) || math.IsInf(r.Utility, 0) {
			continue
		}
		total += r.Utility
	}
	return total
}

// clampEffort restricts a strategy-chosen effort to the feasible range
// [0, min(mδ, apex of ψ)].
func clampEffort(y float64, a *worker.Agent, part effort.Partition) float64 {
	if y < 0 || math.IsNaN(y) {
		return 0
	}
	cap := part.YMax()
	if apex := a.Psi.Apex(); apex < cap {
		cap = apex
	}
	if y > cap {
		return cap
	}
	return y
}
