package core

import (
	"fmt"

	"dyncontract/internal/contract"
	"dyncontract/internal/worker"
)

// ReferenceDesign solves one decomposed subproblem as §IV-C states it:
// per k, ξ^(k) built through contract.Builder and searched by
// worker.BestResponse, then the Eq. (43) argmax. It is the oracle tests in
// this and other packages pin DesignInto and BuildMenu against, result
// and error text byte for byte; no non-test code calls it
// (scripts/check.sh enforces it).
func ReferenceDesign(a *worker.Agent, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(cfg.Part.YMax()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	knots := cfg.Part.Knots(a.Psi)
	candidates := make([]Candidate, 0, cfg.Part.M)
	for k := 1; k <= cfg.Part.M; k++ {
		cand, err := buildCandidate(a, cfg, knots, k)
		if err != nil {
			return nil, fmt.Errorf("core: candidate k=%d: %w", k, err)
		}
		candidates = append(candidates, cand)
	}

	// Pick the requester-utility argmax (the repaired Eq. (43)); ties go
	// to smaller k (cheaper contract, lower induced effort).
	bestIdx := 0
	for i := 1; i < len(candidates); i++ {
		if candidates[i].RequesterUtility > candidates[bestIdx].RequesterUtility {
			bestIdx = i
		}
	}
	best := candidates[bestIdx]

	res := &Result{
		Agent:            a,
		Contract:         best.Contract,
		KOpt:             best.K,
		Response:         best.Response,
		RequesterUtility: best.RequesterUtility,
	}
	if cfg.WantCandidates {
		res.Candidates = candidates
	}
	res.UpperBound = UpperBound(a, cfg)
	res.LowerBound = LowerBound(a, cfg, best.K)
	return res, nil
}

// buildCandidate constructs ξ^(k) per §IV-C Part 2 and evaluates it.
func buildCandidate(a *worker.Agent, cfg Config, knots []float64, k int) (Candidate, error) {
	delta := cfg.Part.Delta
	r1, r2 := a.Psi.R1, a.Psi.R2
	beta, omega := a.Beta, a.Omega

	b := contract.NewBuilder(knots[0], 0)
	// Seed the recursion at the Case I/III boundary of a virtual piece 0:
	// α₀ = β/ψ′(0) − ω = β/r₁ − ω.
	alphaPrev := beta/r1 - omega
	clamped := false
	for l := 1; l <= cfg.Part.M; l++ {
		var alpha float64
		if l <= k {
			// Slope recursion Eq. (39) with the repaired ε of Eq. (40):
			//   α_l = β² / ((α_{l−1}+ω)(r₁+2r₂δ(l−1))²) + ε_l − ω
			//   ε_l = 4βr₂²δ² / ((r₁+2r₂δ(l−1))²·(r₁+2r₂δl))
			gPrev := r1 + 2*r2*delta*float64(l-1) // ψ′((l−1)δ) > 0
			gCur := r1 + 2*r2*delta*float64(l)    // ψ′(lδ) > 0
			eps := 4 * beta * r2 * r2 * delta * delta / (gPrev * gPrev * gCur)
			alpha = beta*beta/((alphaPrev+omega)*gPrev*gPrev) + eps - omega
			if alpha < 0 {
				// Monotone contracts cannot have negative slopes. This
				// branch triggers only when ω is so large that the worker
				// over-works even under a flat contract; the flat piece is
				// the cheapest monotone approximation.
				alpha = 0
				clamped = true
			}
			// The recursion needs α_{l−1} before clamping to preserve the
			// Case III windows, but a clamped α also resets the chain.
			alphaPrev = alpha
		} else {
			alpha = 0 // flat continuation: extra effort earns nothing
		}
		b.AppendSlope(knots[l], alpha)
	}
	c, err := b.Build()
	if err != nil {
		return Candidate{}, fmt.Errorf("build contract: %w", err)
	}
	resp, err := a.BestResponse(c, cfg.Part)
	if err != nil {
		return Candidate{}, fmt.Errorf("best response: %w", err)
	}
	lift := 0.0
	if resp.Declined {
		// Individual rationality: lifting every knot by a constant raises
		// the worker's utility by exactly that constant at every effort
		// level (incentives — the slopes — are untouched), so the minimal
		// lift is the shortfall to the reservation.
		free := *a
		free.Reservation = 0
		freeResp, err := free.BestResponse(c, cfg.Part)
		if err != nil {
			return Candidate{}, fmt.Errorf("unconstrained response: %w", err)
		}
		lift = a.Reservation - freeResp.Utility + participationSlack
		comps := c.Comps()
		for i := range comps {
			comps[i] += lift
		}
		c, err = contract.New(c.Knots(), comps)
		if err != nil {
			return Candidate{}, fmt.Errorf("participation lift: %w", err)
		}
		resp, err = a.BestResponse(c, cfg.Part)
		if err != nil {
			return Candidate{}, fmt.Errorf("lifted best response: %w", err)
		}
		if resp.Declined {
			return Candidate{}, fmt.Errorf("core: lift %v failed to secure participation", lift)
		}
	}
	return Candidate{
		K:                 k,
		Contract:          c,
		Response:          resp,
		RequesterUtility:  cfg.W*resp.Feedback - cfg.Mu*resp.Compensation,
		Clamped:           clamped,
		ParticipationLift: lift,
	}, nil
}
