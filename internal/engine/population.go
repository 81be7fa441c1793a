// Package engine is the single round-loop behind every marketplace
// simulation in this repository. The paper's decomposition result (§IV-B)
// makes contract design separate per worker/community, and real
// populations are drawn from a handful of behavioural archetypes — so the
// engine pairs the loop with a deduplicating design cache: agents sharing
// a design fingerprint (class, ψ, β, ω, reservation, partition, μ, w) cost
// one core.Design call per round, and an unchanged fingerprint across
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
// Engines read it through cached indexed views (see Config.Shards). An
// engine with a Config.Drift hook rebuilds every view each round the hook
// declares nothing narrower, so undeclared mutations are seen; an engine
// without one keeps its views, and a mutation — in an observer, or
// between Step calls — stays invisible until Bump, Touch, TouchJoin, or
// TouchLeave declares it. The contract is the same for every shard count.
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
}

// Bump advances the population's generation counter and declares a
// whole-population drift scope. Call it after mutating the Agents slice
// in a way no sparse declaration expresses (reordering, bulk
// replacement) outside a Config.Drift hook, so engines with no Drift
// configured rebuild their cached ID-sorted agent view; declared adds
// and removes have sparse declarations of their own (TouchJoin,
// TouchLeave). Bump is also the escape hatch for mutations the sparse
// scope cannot express — most notably replacing an agent object under an
// existing ID, which Touch cannot distinguish from an in-place mutation.
// Weights, malice probabilities, and agent parameters mutated in place
// outside a Drift hook likewise need a Bump (or a Touch) before the
// engine observes them.
func (p *Population) Bump() {
	p.touchedAll = true
	p.scopePending = true
	p.generation++
}

// Touch declares a sparse drift scope: exactly the agents named were
// mutated since the engine last looked (weights, malice probability, or
// in-place agent parameters — and, for structural edits, the IDs that
// were added to or removed from Agents). Engines consume the accumulated
// scope at the top of their next round: a scope confined to existing
// agents refreshes only the shard views that own them, keeping every
// untouched shard on its warm path, while a scope naming an added or
// removed ID (or any unknown ID) escalates to the classic full rebuild.
//
// Touch is cumulative until consumed — several drifts between rounds
// union their scopes — and advances the generation counter like Bump, so
// secondary consumers of the same population (a second engine, or
// Population.Shards snapshots) still observe the mutation through the
// generation compare and rebuild conservatively.
//
// The one mutation Touch must not be used for is replacing an agent
// object under an ID that is still present: the sparse path resolves IDs
// against its retained view and cannot see the swap. Declare that with
// Bump. Membership changes — an ID added to or removed from Agents —
// have their own declarations: TouchJoin and TouchLeave.
func (p *Population) Touch(ids ...string) {
	if !p.touchedAll {
		if p.touched == nil {
			p.touched = make(map[string]struct{}, len(ids))
		}
		for _, id := range ids {
			p.touched[id] = struct{}{}
		}
	}
	p.scopePending = true
	p.generation++
}

// TouchJoin declares a structural drift scope: exactly the agents named
// were appended to Agents (with Weights and, optionally, MaliceProb
// entries) since the engine last looked. A declared join splices the
// engine's cached ID-sorted view and re-slots only the shard owning each
// joined ID; every other agent keeps its view position, outcome slot, and
// warm state. Like Touch it is cumulative until consumed and advances the
// generation counter, so secondary consumers still rebuild conservatively.
//
// A TouchJoin for an ID that is already present (or otherwise
// inconsistent with the engine's retained view) is detected at
// consumption and escalates the round to the classic full rebuild — a
// misdeclaration costs performance, never correctness the engine can see.
func (p *Population) TouchJoin(ids ...string) {
	if !p.touchedAll {
		if p.joined == nil {
			p.joined = make(map[string]struct{}, len(ids))
		}
		for _, id := range ids {
			p.joined[id] = struct{}{}
		}
	}
	p.scopePending = true
	p.generation++
}

// TouchLeave declares the structural counterpart of TouchJoin: exactly
// the agents named were removed from Agents (and their Weights/MaliceProb
// entries deleted) since the engine last looked. A declared leave splices
// the cached view and tombstones the agent's outcome slot — reclaimed by
// a deferred, batched compaction — leaving every remaining agent's slot
// and warm state untouched. Cumulative and generation-advancing, like
// Touch; inconsistent declarations escalate to the full rebuild.
func (p *Population) TouchLeave(ids ...string) {
	if !p.touchedAll {
		if p.left == nil {
			p.left = make(map[string]struct{}, len(ids))
		}
		for _, id := range ids {
			p.left[id] = struct{}{}
		}
	}
	p.scopePending = true
	p.generation++
}

// takeScope consumes the accumulated drift scope, appending the touched,
// joined, and left IDs into the reused dst slices (returned re-sliced).
// pending reports whether any declaration happened since the last
// consumption; all reports a Bump (the id slices are then meaningless).
// At most one consumer sees a given scope — engines sharing a population
// fall back to the generation compare.
func (p *Population) takeScope(dst, jdst, ldst []string) (ids, joins, leaves []string, all, pending bool) {
	dst, jdst, ldst = dst[:0], jdst[:0], ldst[:0]
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
func (p *Population) Validate() error {
	if len(p.Agents) == 0 {
		return fmt.Errorf("no agents: %w", ErrBadPopulation)
	}
	if !(p.Mu > 0) || math.IsInf(p.Mu, 0) {
		return fmt.Errorf("mu=%v: %w", p.Mu, ErrBadPopulation)
	}
	seen := make(map[string]bool, len(p.Agents))
	malice := 0 // agents with a MaliceProb entry
	for _, a := range p.Agents {
		if a == nil {
			return fmt.Errorf("nil agent: %w", ErrBadPopulation)
		}
		if a.ID == "" {
			return fmt.Errorf("agent with empty ID: %w", ErrBadPopulation)
		}
		if seen[a.ID] {
			return fmt.Errorf("duplicate agent %q: %w", a.ID, ErrBadPopulation)
		}
		seen[a.ID] = true
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
		if mp, ok := p.MaliceProb[a.ID]; ok {
			malice++
			if !(mp >= 0 && mp <= 1) {
				return fmt.Errorf("agent %q malice probability=%v: %w", a.ID, mp, ErrBadPopulation)
			}
		}
	}
	// Every agent has a weight and the matched malice entries are counted,
	// so any surplus entry is an orphan; the scans only run on mismatch.
	if len(p.Weights) > len(p.Agents) {
		for id := range p.Weights {
			if !seen[id] {
				return fmt.Errorf("weight for unknown agent %q: %w", id, ErrBadPopulation)
			}
		}
	}
	if len(p.MaliceProb) > malice {
		for id := range p.MaliceProb {
			if !seen[id] {
				return fmt.Errorf("malice probability for unknown agent %q: %w", id, ErrBadPopulation)
			}
		}
	}
	return nil
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
