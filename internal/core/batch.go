// Batched structure-of-arrays solve of the §IV-C candidate-contract
// algorithm — the cold design path.
//
// Design builds m candidate contracts through contract.Builder, freezes
// each as a PiecewiseLinear, and asks worker.BestResponse to search it
// through the general-contract machinery (binary-searched Eval per probe
// point). That is m allocations and m generic searches per design, all to
// pick one winner. The batched solve exploits two structural facts:
//
//  1. The Eq. (39)–(40) slope recursion does not depend on the target
//     interval k: candidate ξ^(k)'s slopes are the k-prefix of one shared
//     chain α_1..α_m followed by zeros, so its compensation knots are the
//     shared prefix C_0..C_k continued flat at C_k. One O(m) chain pass
//     serves all m candidates.
//  2. The worker's best response probes a fixed point set (interval
//     edges and per-piece interior stationary points), and every probe
//     evaluates the candidate via the knot arrays alone. Evaluating
//     candidate k at index i just reads C_{min(i,k)} — no contract value
//     is ever needed.
//
// DesignInto therefore runs the whole solve over flat float64 slices held
// in a reusable Scratch and materializes exactly one PiecewiseLinear: the
// argmax winner (all m candidates when Config.WantCandidates asks for the
// diagnostics). The solve is split at Eq. (43) (menu.go): BuildMenu is
// everything the worker side determines, Menu.Pick the requester's argmax,
// and DesignInto the two in sequence. Every arithmetic expression mirrors the scalar path
// token for token — same evaluation order, same binary search, same
// lexicographic (utility, −effort) tie-break — so results are
// bit-identical to Design; TestDesignIntoMatchesDesign and the fuzz
// harness in batch_test.go pin this. Anything the fast path cannot
// reproduce exactly (non-finite chain values, degenerate knots, a
// participation lift that fails to secure participation) falls back to
// the scalar Design, which reproduces the identical error.
package core

import (
	"fmt"
	"math"

	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// Scratch holds the flat working arrays of the batched solve. A zero
// Scratch is ready to use; buffers grow to the largest partition seen and
// are then reused, so a long-lived Scratch makes repeated designs
// allocation-free up to the winner contract itself. A Scratch is
// single-owner: one solve at a time (the solver pool keeps one per
// worker, the engine's ShardDesigner one for its inline solves).
type Scratch struct {
	// knots is d_l = ψ(lδ), l = 0..m. It is never written in place: a new
	// (partition, ψ) gets a fresh array, so the menus built over it — and
	// every contract they materialize — share it read-only.
	knots  []float64
	alphas []float64 // α_1..α_m, the shared slope chain of Eq. (39)–(40)
	comps  []float64 // C_0..C_m, compensation knots under the full chain
	lifted []float64 // participation-lifted compensations, one candidate at a time

	// Knot cache: ψ(lδ) is a pure function of (partition, ψ), so
	// consecutive solves sharing both — the common case when a batch
	// groups subproblems on one partition — skip recomputing the array.
	// Recomputation would produce the same bits, so the cache never
	// affects results.
	knotPart      effort.Partition
	knotPsi       effort.Quadratic
	knotsOK       bool
	knotsMonotone bool

	// resps holds every candidate's full best response from the last
	// buildMenu — what a menu itself does not keep — for DesignInto's
	// Result.
	resps []worker.Response

	// menu is DesignInto's reusable menu: a one-shot design builds into
	// it and picks from it, so the cold path allocates no menu.
	menu Menu

	uses      uint64
	fallbacks uint64
}

// Uses reports the number of designs this scratch has served — the
// scratch-reuse signal surfaced on engine.stage.design spans.
func (s *Scratch) Uses() uint64 { return s.uses }

// Fallbacks reports the number of designs this scratch routed to the
// scalar Design path — degenerate knots, a non-finite slope chain, or a
// participation lift the batched solve could not reproduce exactly. A
// count tracking Uses means the population defeats the batched path
// wholesale; the solver surfaces the delta as
// dyncontract_solver_scalar_fallbacks_total.
func (s *Scratch) Fallbacks() uint64 { return s.fallbacks }

// fallback delegates one design to the scalar path, counting it — every
// site where the batched solve cannot reproduce the scalar result (or its
// error) bit for bit funnels through here.
func (s *Scratch) fallback(a *worker.Agent, cfg Config) (*Result, error) {
	if s != nil {
		s.fallbacks++
	}
	return Design(a, cfg)
}

// prepare sizes the buffers for partition part and fills the knot array
// for ψ, reusing the cached knots when (part, ψ) is unchanged.
func (s *Scratch) prepare(part effort.Partition, psi effort.Quadratic) {
	m := part.M
	if cap(s.alphas) < m {
		s.alphas = make([]float64, m)
		s.comps = make([]float64, m+1)
		s.lifted = make([]float64, m+1)
		s.resps = make([]worker.Response, m)
	}
	s.alphas = s.alphas[:m]
	s.comps = s.comps[:m+1]
	s.lifted = s.lifted[:m+1]
	s.resps = s.resps[:m]
	if s.knotsOK && s.knotPart == part && s.knotPsi == psi {
		return
	}
	s.knots = make([]float64, m+1)
	monotone := true
	for l := 0; l <= m; l++ {
		s.knots[l] = psi.Eval(part.Edge(l))
		if math.IsNaN(s.knots[l]) || math.IsInf(s.knots[l], 0) || (l > 0 && s.knots[l] <= s.knots[l-1]) {
			monotone = false
		}
	}
	s.knotPart, s.knotPsi = part, psi
	s.knotsOK, s.knotsMonotone = true, monotone
}

// chain runs the Eq. (39)–(40) slope recursion once over the full
// partition, writing α_1..α_m and the compensation knots C_0..C_m built
// exactly as contract.Builder.AppendSlope would (x_l = x_{l−1} +
// α_l·(d_l − d_{l−1})). It returns the 1-based index of the first clamped
// piece (0 when no slope was clamped) and ok = false when any produced
// value is non-finite — the caller then falls back to the scalar path,
// which reproduces the matching construction error.
func (s *Scratch) chain(a *worker.Agent, part effort.Partition) (firstClamp int, ok bool) {
	delta := part.Delta
	r1, r2 := a.Psi.R1, a.Psi.R2
	beta, omega := a.Beta, a.Omega

	// Seed at the Case I/III boundary of a virtual piece 0, exactly as
	// buildCandidate does: α₀ = β/ψ′(0) − ω = β/r₁ − ω.
	alphaPrev := beta/r1 - omega
	s.comps[0] = 0
	ok = true
	for l := 1; l <= part.M; l++ {
		gPrev := r1 + 2*r2*delta*float64(l-1) // ψ′((l−1)δ) > 0
		gCur := r1 + 2*r2*delta*float64(l)    // ψ′(lδ) > 0
		eps := 4 * beta * r2 * r2 * delta * delta / (gPrev * gPrev * gCur)
		alpha := beta*beta/((alphaPrev+omega)*gPrev*gPrev) + eps - omega
		if alpha < 0 {
			alpha = 0
			if firstClamp == 0 {
				firstClamp = l
			}
		}
		alphaPrev = alpha
		s.alphas[l-1] = alpha
		s.comps[l] = s.comps[l-1] + alpha*(s.knots[l]-s.knots[l-1])
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(s.comps[l]) || math.IsInf(s.comps[l], 0) {
			ok = false
		}
	}
	return firstClamp, ok
}

// evalCandidate evaluates candidate k's contract at feedback q over the
// shared arrays: the candidate's compensation at knot index i is
// comps[min(i, k)] (the shared prefix continued flat at C_k), and the
// interpolation replicates contract.PiecewiseLinear.Eval expression for
// expression — same boundary clamps, same binary search, same secant
// slope — so the value is bit-identical to evaluating the materialized
// contract. Flat pieces (i > k) produce a secant of exactly 0 and the
// value C_k exactly. Pass k = m for an already-flattened comps array
// (the lifted buffer).
func evalCandidate(knots, comps []float64, k int, q float64) float64 {
	m := len(knots) - 1
	if q <= knots[0] {
		return comps[0]
	}
	if q >= knots[m] {
		return comps[min(m, k)]
	}
	lo, hi := 0, m
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if knots[mid] <= q {
			lo = mid
		} else {
			hi = mid
		}
	}
	cLo, cHi := comps[min(lo, k)], comps[min(hi, k)]
	alpha := (cHi - cLo) / (knots[hi] - knots[lo])
	return cLo + alpha*(q-knots[lo])
}

// bestResponse is worker.Agent.BestResponse over the SoA arrays: the same
// probe points in the same order (y = 0, every interval's edges, every
// interval's interior stationary point), the same utility expression, the
// same lexicographic (utility, −effort) replacement rule. The per-call
// agent validation is hoisted — DesignInto validated the agent over
// [0, mδ] once, which implies validity over every smaller cap. Unlike
// the worker method this returns the raw best (no participation check):
// the caller needs the undeclined utility to size the participation
// lift, mirroring the scalar path's reservation-free re-response.
func bestResponse(a *worker.Agent, part effort.Partition, knots, comps []float64, k int) worker.Response {
	yCap := part.YMax()
	if apex := a.Psi.Apex(); apex < yCap {
		yCap = apex
	}

	var best worker.Response
	bestSet := false
	consider := func(y float64) {
		if y < 0 || y > yCap || math.IsNaN(y) {
			return
		}
		q := a.Psi.Eval(y)
		comp := evalCandidate(knots, comps, k, q)
		u := comp - a.Beta*y + a.Omega*q
		if !bestSet || u > best.Utility ||
			// Tie-break toward lower effort, as BestResponse does.
			(u == best.Utility && y < best.Effort) {
			best = worker.Response{
				Effort:       y,
				Feedback:     q,
				Compensation: comp,
				Utility:      u,
				Interval:     part.IntervalOf(y),
			}
			bestSet = true
		}
	}

	consider(0)
	for l := 1; l <= part.M; l++ {
		lo := part.Edge(l - 1)
		hi := part.Edge(l)
		if lo > yCap {
			break
		}
		if hi > yCap {
			hi = yCap
		}
		consider(lo)
		consider(hi)
		// Interior stationary point ψ′(y) = β/(α_l + ω) with α_l the
		// piece's secant slope, recomputed from the knot values exactly as
		// pieceSlope does (the secant can differ from the chain's α_l in
		// the last ulp, and the last ulp is the contract here).
		qLo, qHi := a.Psi.Eval(lo), a.Psi.Eval(hi)
		var alpha float64
		if qHi > qLo {
			alpha = (evalCandidate(knots, comps, k, qHi) - evalCandidate(knots, comps, k, qLo)) / (qHi - qLo)
		}
		denom := alpha + a.Omega
		if denom > 0 {
			if y, ok := a.Psi.InverseDeriv(a.Beta / denom); ok && y > lo && y < hi {
				consider(y)
			}
		}
	}
	return best
}

// DesignInto is Design over a reusable Scratch: one batched
// structure-of-arrays solve that validates once, runs the slope recursion
// once for all m candidates, best-responds analytically over the shared
// arrays, and materializes only the winning contract (every candidate
// when cfg.WantCandidates is set). It is BuildMenu into the scratch's own
// menu followed by the Eq. (43) pick, so the engine's cached menus and
// this cold path run one code path. Results — contract knots and
// compensations, KOpt, response, bounds, diagnostics — are bit-identical
// to Design's. s may be nil (a temporary scratch is used); otherwise the
// caller must not share s between concurrent solves.
func DesignInto(a *worker.Agent, cfg Config, s *Scratch) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(cfg.Part.YMax()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if s == nil {
		s = &Scratch{}
	}
	s.buildMenu(a, cfg.Part, &s.menu)
	return s.menu.design(a, cfg, s)
}
