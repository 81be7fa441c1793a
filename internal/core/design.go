// Package core implements the paper's primary contribution: the
// candidate-contract algorithm of §IV-C that designs a near-optimal
// piecewise-linear dynamic contract for a single worker (or collusive
// community treated as a meta-worker), together with the Theorem 4.1
// utility bounds.
//
// # Algorithm
//
// The effort axis is partitioned into m intervals of width δ. For every
// target interval k the algorithm builds a candidate contract ξ^(k) whose
// slopes are the cheapest ones that still make the worker's best response
// land in interval k:
//
//   - pieces l = 1..k are built in Lemma 4.1's Case III (interior optimum)
//     using the slope recursion of Eq. (39)–(40), which makes the worker's
//     achievable utility strictly increase from interval to interval up to
//     k while keeping each slope minimal;
//   - pieces l = k+1..m are flat (zero increment), so additional effort
//     earns nothing.
//
// The final contract is the candidate maximizing the requester's utility
// w·ψ(y*) − μ·ξ(y*) at the worker's (exactly computed) best response y*.
//
// # Deviations from the printed text
//
// The ICDCS text contains several misprints that this implementation
// repairs; see DESIGN.md §2 for the full list. Most notably Eq. (43) is
// implemented as the requester-utility argmax and the ε of Eq. (40) uses
// the form that makes the paper's own verification identity (42) hold.
package core

import (
	"errors"
	"fmt"
	"math"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// Case labels Lemma 4.1's classification of a contract piece: where the
// worker's utility maximum sits within one effort interval.
type Case int

// Lemma 4.1 cases.
const (
	// CaseI: utility non-increasing on the interval; optimum at the left
	// edge. Occurs for slopes α ≤ β/ψ′((l−1)δ) − ω.
	CaseI Case = iota + 1
	// CaseII: utility non-decreasing; optimum at the right edge. Occurs
	// for slopes α ≥ β/ψ′(lδ) − ω.
	CaseII
	// CaseIII: interior stationary optimum at ψ′(y) = β/(α+ω).
	CaseIII
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseI:
		return "I"
	case CaseII:
		return "II"
	case CaseIII:
		return "III"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// ErrBadConfig is returned when a design configuration fails validation.
var ErrBadConfig = errors.New("core: invalid design configuration")

// participationSlack is the hair of headroom added on top of the minimal
// participation lift (the shortfall between the worker's best utility and
// the reservation), for a worker with the given reservation and a
// candidate whose unlifted top compensation is top, whose steepest slope
// is steep, and whose feedback knots are knots. The lift is applied
// to the contract's compensation knots and the lifted contract is then
// re-evaluated through the same floating-point pipeline (knot
// interpolation, ψ round-trips); without slack, rounding in that
// re-evaluation can leave the lifted utility a few ulps below the
// reservation and the worker still declining. That rounding has two
// sources. On the compensation side it scales with the lifted
// compensations, about reservation + top, so the slack is 1e-9 — far
// above the rounding at the magnitudes the paper works with (β, δ, ψ all
// O(1)) and far below anything economically meaningful — or 1e-13 of
// that magnitude (some 450 ulps) where that is larger, from a magnitude
// of 1e4 up. On the feedback side, one ulp of q moves the pay by the
// slope times that ulp, which for a feedback far from zero (ψ(0) = 1e5,
// say) exceeds both; the slack covers steep times one ulp of the
// largest-magnitude knot. Both the reference (buildCandidate) and the
// batched solve (Scratch.candidate) call it with the same arguments,
// keeping their lifted contracts bit-identical.
func participationSlack(reservation, top, steep float64, knots []float64) float64 {
	q := max(math.Abs(knots[0]), math.Abs(knots[len(knots)-1]))
	return max(1e-9, (reservation+top)*1e-13, steep*(math.Nextafter(q, math.Inf(1))-q))
}

// Config parameterizes a single-agent contract design (one decomposed
// subproblem of §IV-B).
type Config struct {
	// Part is the effort-axis discretization (m intervals of width δ).
	Part effort.Partition
	// Mu is the requester's weight μ on compensation in Eq. (7).
	Mu float64
	// W is the requester's weight w_i on this agent's feedback (Eq. (5)),
	// already evaluated; may be negative for heavily penalized workers, in
	// which case the designed contract collapses to "pay nothing".
	W float64
	// WantCandidates requests the per-k Candidate diagnostics on the
	// Result. Consumers that read Result.Candidates — the budgeted policy's
	// menus, the experiment tables, diagnostic tests — must opt in; the
	// default (false) leaves Result.Candidates nil so the hot design path
	// (engine cache misses, serving-layer design queries) never
	// materializes the m per-candidate contracts and responses.
	WantCandidates bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := validatePart(c.Part); err != nil {
		return err
	}
	if !(c.Mu > 0) || math.IsInf(c.Mu, 0) {
		return fmt.Errorf("mu=%v must be positive and finite: %w", c.Mu, ErrBadConfig)
	}
	if math.IsNaN(c.W) || math.IsInf(c.W, 0) {
		return fmt.Errorf("w=%v must be finite: %w", c.W, ErrBadConfig)
	}
	return nil
}

// validatePart checks the partition half of a configuration — all that
// BuildMenu reads of it.
func validatePart(p effort.Partition) error {
	if p.M <= 0 || !(p.Delta > 0) {
		return fmt.Errorf("partition %+v: %w", p, ErrBadConfig)
	}
	return nil
}

// Candidate records the outcome of building ξ^(k) for one target interval.
type Candidate struct {
	// K is the 1-based target effort interval.
	K int
	// Contract is the built candidate ξ^(k) (in feedback space).
	Contract *contract.PiecewiseLinear
	// Response is the agent's exact best response to the candidate.
	Response worker.Response
	// RequesterUtility is w·ψ(y*) − μ·ξ(y*) at the best response.
	RequesterUtility float64
	// Clamped reports whether any slope of the Case III recursion had to
	// be clamped at zero to preserve contract monotonicity (happens only
	// when ω is large relative to β; see DESIGN.md).
	Clamped bool
	// ParticipationLift is the constant added to every compensation knot
	// to satisfy the worker's reservation utility (individual
	// rationality); 0 when the worker participates voluntarily.
	ParticipationLift float64
}

// Result is the output of DesignInto: the chosen contract plus diagnostics and
// the Theorem 4.1 bounds.
type Result struct {
	// Agent is the designed-for agent.
	Agent *worker.Agent
	// Contract is the selected contract f_i (feedback → compensation).
	Contract *contract.PiecewiseLinear
	// KOpt is the selected target interval.
	KOpt int
	// Response is the agent's predicted best response to Contract.
	Response worker.Response
	// RequesterUtility is the requester's per-round utility from this
	// agent: w·ψ(y*) − μ·compensation.
	RequesterUtility float64
	// UpperBound and LowerBound are the Theorem 4.1 bounds on the
	// requester's utility from this agent.
	UpperBound float64
	// LowerBound is valid for honest agents (ω = 0); for malicious agents
	// it is the same expression and is reported for reference (the paper
	// asserts but does not prove it for ω > 0).
	LowerBound float64
	// Candidates holds per-k diagnostics in k order; nil unless
	// Config.WantCandidates was set.
	Candidates []Candidate
}

// Classify applies Lemma 4.1 to a contract slope α on effort interval l
// (1-based): it reports where the worker's utility maximum sits in
// [(l−1)δ, lδ).
func Classify(a *worker.Agent, part effort.Partition, l int, alpha float64) Case {
	lower := CaseBoundaryLower(a, part, l)
	upper := CaseBoundaryUpper(a, part, l)
	switch {
	case alpha <= lower:
		return CaseI
	case alpha >= upper:
		return CaseII
	default:
		return CaseIII
	}
}

// CaseBoundaryLower returns the Case I / Case III slope boundary for piece
// l: β/ψ′((l−1)δ) − ω.
func CaseBoundaryLower(a *worker.Agent, part effort.Partition, l int) float64 {
	return a.Beta/a.Psi.Deriv(part.Edge(l-1)) - a.Omega
}

// CaseBoundaryUpper returns the Case III / Case II slope boundary for piece
// l: β/ψ′(lδ) − ω.
func CaseBoundaryUpper(a *worker.Agent, part effort.Partition, l int) float64 {
	return a.Beta/a.Psi.Deriv(part.Edge(l)) - a.Omega
}

// CompensationUpperBound returns Lemma 4.2's bound on the compensation paid
// under candidate ξ^(k):
//
//	c ≤ βkδ − 2βr₂kδ² / (2r₂(k−1)δ + r₁)
//
// (the second term is positive because r₂ < 0).
func CompensationUpperBound(a *worker.Agent, part effort.Partition, k int) float64 {
	delta := part.Delta
	kf := float64(k)
	return a.Beta*kf*delta - 2*a.Beta*a.Psi.R2*kf*delta*delta/(2*a.Psi.R2*(kf-1)*delta+a.Psi.R1)
}

// CompensationLowerBound returns Lemma 4.3's bound: any contract whose
// induced optimal effort falls in interval k pays at least β(k−1)δ. The
// bound holds for honest workers (ω = 0); for ω > 0 the individual
// rationality argument weakens by the intrinsic utility ω(ψ(y) − ψ(0)) and
// the returned value is adjusted accordingly (never below zero).
func CompensationLowerBound(a *worker.Agent, part effort.Partition, k int) float64 {
	base := a.Beta * float64(k-1) * part.Delta
	if a.Omega > 0 {
		base -= a.Omega * (a.Psi.Eval(float64(k)*part.Delta) - a.Psi.Eval(0))
	}
	if base < 0 {
		return 0
	}
	return base
}

// UpperBound returns Theorem 4.1's upper bound on the requester's utility
// from agent a:
//
//	max_l { w·ψ(lδ) − μ·CompLB(l) }
//
// using the ω-adjusted compensation lower bound.
func UpperBound(a *worker.Agent, cfg Config) float64 {
	ub := math.Inf(-1)
	for l := 1; l <= cfg.Part.M; l++ {
		u := cfg.W*a.Psi.Eval(cfg.Part.Edge(l)) - cfg.Mu*CompensationLowerBound(a, cfg.Part, l)
		if u > ub {
			ub = u
		}
	}
	// The requester can always decline to incentivize (flat zero contract,
	// zero effort): utility w·ψ(0). The bound must not fall below that.
	if u0 := cfg.W * a.Psi.Eval(0); u0 > ub {
		ub = u0
	}
	return ub
}

// LowerBound returns Theorem 4.1's lower bound on the requester's utility
// achieved by the designed contract with target interval kOpt:
//
//	w·ψ((kOpt−1)δ) − μ·CompUB(kOpt)
//
// It is proved for honest agents; for malicious agents it is the analogous
// expression and is reported for reference.
func LowerBound(a *worker.Agent, cfg Config, kOpt int) float64 {
	return cfg.W*a.Psi.Eval(cfg.Part.Edge(kOpt-1)) - cfg.Mu*CompensationUpperBound(a, cfg.Part, kOpt)
}
