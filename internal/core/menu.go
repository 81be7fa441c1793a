package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// Menu is the weight-free half of one §IV-C design. The candidate
// contracts ξ^(k), the worker's (participation-lifted) best response to
// each, and the clamp flags depend only on the worker side — class, ψ,
// β, ω, reservation — and the partition. The requester's w and μ enter
// only the Eq. (43) argmax over the m candidates, so one menu serves
// every weight: a weight or μ change costs an O(m) Pick, not a solve.
//
// A menu keeps only what picks and contracts read: each candidate's
// feedback and compensation at the worker's best response, its
// participation lift, the slope chain's compensation knots, and the knot
// grid, shared read-only with every menu built over the same
// (partition, ψ) and with every contract materialized from it. Winning
// contracts are materialized lazily, once per (menu, k), and published
// with a compare-and-swap, so every caller that picks k from the same
// menu — the round loop, concurrent design queries — receives the same contract
// pointer. A menu never materializes a candidate nobody picked.
//
// A menu whose solve fails — degenerate knots, a non-finite slope chain,
// a participation lift that overflows or fails to secure participation —
// carries the error the reference design (reference.go) reports for the
// same worker, and ContractFor returns it for every (w, μ): the failure
// is weight-free too.
//
// A built menu is immutable apart from its published contracts and is
// safe for concurrent use.
//
// The cache keeps one menu per live design key, so the struct stays at
// 80 bytes, one allocator size class (TestMenuSize): δ alone stands for
// the partition, m being len(knots)−1, and the clamp index only
// DesignInto's diagnostics read stays in the Scratch.
type Menu struct {
	delta float64
	knots []float64 // d_0..d_m
	// vals holds, for m candidates: (F_k, C_k) pairs — feedback and
	// compensation at the best response to ξ^(k) — in vals[:2m], the
	// lifts in vals[2m:3m], and the chain's C_0..C_m in vals[3m:].
	vals   []float64
	picked atomic.Pointer[pickedContract]
	// err is the solve's construction error, nil for a menu that can be
	// picked from.
	err error
}

// part is the partition the menu was built over.
func (m *Menu) part() effort.Partition {
	return effort.Partition{M: len(m.knots) - 1, Delta: m.delta}
}

// pickedContract is one materialized candidate in a menu's published
// list. Nodes are immutable once published.
type pickedContract struct {
	k    int
	c    *contract.PiecewiseLinear
	next *pickedContract
}

// BuildMenu runs the weight-free part of the §IV-C candidate solve for
// agent a over partition part: validation, the ψ knots, the shared slope
// chain, and per candidate k the worker's best response, the
// participation lift and the clamp flag. The returned menu is a fresh
// allocation the caller may cache and share; s is the working scratch
// (nil uses a temporary one).
func BuildMenu(a *worker.Agent, part effort.Partition, s *Scratch) (*Menu, error) {
	if err := validatePart(part); err != nil {
		return nil, err
	}
	if err := a.Validate(part.YMax()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if s == nil {
		s = &Scratch{}
	}
	m := &Menu{}
	s.buildMenu(a, part, m)
	return m, nil
}

// buildMenu fills m from one batched solve over the scratch's arrays,
// leaving every candidate's full best response in s.resps for a Result
// built straight after (design). The agent and partition must already be
// validated. Candidates are solved in the reference's k order — each
// one's contract, then its participation lift — so the first failure,
// stored in m.err, is the one the reference reports.
func (s *Scratch) buildMenu(a *worker.Agent, part effort.Partition, m *Menu) {
	s.uses++
	mm := part.M
	m.delta = part.Delta
	m.err = nil

	s.prepare(part, a.Psi)
	m.knots = s.knots
	firstClamp, chainOK := s.chain(a, part)
	// Monotone knots under a finite chain build every candidate; otherwise
	// each candidate's contract is validated before its response.
	built := s.knotsMonotone && chainOK
	s.firstClamp = firstClamp
	if cap(m.vals) < 4*mm+1 {
		m.vals = make([]float64, 4*mm+1)
	}
	m.vals = m.vals[:4*mm+1]
	for k := 1; k <= mm; k++ {
		resp, lift, err := s.candidate(a, part, k, built)
		if err != nil {
			m.err = fmt.Errorf("core: candidate k=%d: %w", k, err)
			s.failed++
			return
		}
		s.resps[k-1] = resp
		m.vals[2*(k-1)], m.vals[2*(k-1)+1] = resp.Feedback, resp.Compensation
		m.vals[2*mm+k-1] = lift
	}
	copy(m.vals[3*mm:], s.comps)
}

// candidate is candidate k's best response over the chain in s.comps,
// with the participation lift mirroring buildCandidate: the shortfall is
// measured against the reservation-free response, which runs the
// identical search and so has exactly resp's utility — except that a
// negative best utility makes even the free worker decline, and a
// declined response reports the zero value. Unless built vouches for
// it, the candidate's contract is validated first. err is the
// construction error buildCandidate returns for k.
func (s *Scratch) candidate(a *worker.Agent, part effort.Partition, k int, built bool) (resp worker.Response, lift float64, err error) {
	if !built {
		if err := s.buildErr(k); err != nil {
			return resp, 0, fmt.Errorf("build contract: %w", err)
		}
	}
	resp = bestResponse(a, part, s.knots, s.comps, k)
	// The worker declines exactly when BestResponse says so: a NaN
	// utility participates.
	if !(resp.Utility < a.Reservation) {
		return resp, 0, nil
	}
	freeU := resp.Utility
	if freeU < 0 {
		freeU = 0
	}
	// Finite and positive: 0 ≤ freeU < Reservation.
	lift = a.Reservation - freeU + participationSlack
	m := part.M
	for i := 0; i <= m; i++ {
		s.lifted[i] = s.comps[min(i, k)] + lift
	}
	// The lifted knots are non-decreasing, so only an overflow at the top
	// can fail the lift's validation; contract.New words the error.
	if math.IsInf(s.lifted[m], 0) {
		if _, err := contract.NewShared(s.knots, s.lifted); err != nil {
			return resp, lift, fmt.Errorf("participation lift: %w", err)
		}
	}
	resp = bestResponse(a, part, s.knots, s.lifted, m)
	if resp.Utility < a.Reservation {
		return resp, lift, fmt.Errorf("core: lift %v failed to secure participation", lift)
	}
	return resp, lift, nil
}

// buildErr is contract.Builder's validation of candidate k: the chain's
// slopes on pieces 1..k and flat pieces after, each knot's compensation
// x_l = x_{l−1} + α_l·(d_l − d_{l−1}), written to s.lifted.
func (s *Scratch) buildErr(k int) error {
	x := s.lifted
	x[0] = 0
	for l := 1; l < len(x); l++ {
		alpha := 0.0
		if l <= k {
			alpha = s.alphas[l-1]
		}
		x[l] = x[l-1] + alpha*(s.knots[l]-s.knots[l-1])
	}
	_, err := contract.NewShared(s.knots, x)
	return err
}

// Pick is the Eq. (43) argmax over the menu: the 1-based k maximizing the
// requester's utility w·ψ(y*) − μ·ξ(y*) at the worker's best response to
// ξ^(k), and that utility. Ties go to the smaller k (strict >), exactly
// as the reference's selection loop breaks them. Pick must not be
// called on a menu whose solve failed (ContractFor reports its error).
func (m *Menu) Pick(w, mu float64) (k int, ru float64) {
	fc := m.vals[:2*(len(m.knots)-1)]
	for i := 0; i < len(fc); i += 2 {
		u := w*fc[i] - mu*fc[i+1]
		if k == 0 || u > ru {
			k, ru = i/2+1, u
		}
	}
	return k, ru
}

// lift is candidate k's participation lift.
func (m *Menu) lift(k int) float64 { return m.vals[2*(len(m.knots)-1)+k-1] }

// contract returns candidate k's contract, materializing it on first use.
// Concurrent first uses race through a compare-and-swap, and every caller
// gets the published pointer.
func (m *Menu) contract(k int) (*contract.PiecewiseLinear, error) {
	head := m.picked.Load()
	if c := head.find(k); c != nil {
		return c, nil
	}
	c, err := m.materialize(k)
	if err != nil {
		return nil, err
	}
	for {
		if m.picked.CompareAndSwap(head, &pickedContract{k: k, c: c, next: head}) {
			return c, nil
		}
		head = m.picked.Load()
		if won := head.find(k); won != nil {
			return won, nil
		}
	}
}

// find walks a published list for candidate k.
func (p *pickedContract) find(k int) *contract.PiecewiseLinear {
	for ; p != nil; p = p.next {
		if p.k == k {
			return p.c
		}
	}
	return nil
}

// materialize allocates candidate k's contract on the menu's knot grid:
// the chain's prefix C_0..C_k continued flat at C_k, plus the lift on
// every knot — the same two steps the reference performs (flatten via
// the builder, then shift the copied comps), so the knot and comp values
// are bit-identical.
func (m *Menu) materialize(k int) (*contract.PiecewiseLinear, error) {
	chain := m.vals[3*(len(m.knots)-1):]
	lift := m.lift(k)
	comps := make([]float64, len(chain))
	for i := range comps {
		comps[i] = chain[min(i, k)]
		if lift != 0 {
			comps[i] += lift
		}
	}
	return contract.NewShared(m.knots, comps)
}

// ContractFor returns the contract the menu offers under cfg: the shared
// contract of the Pick winner, or the menu's construction error.
func (m *Menu) ContractFor(cfg Config) (*contract.PiecewiseLinear, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Part != m.part() {
		return nil, fmt.Errorf("partition %+v differs from the menu's %+v: %w", cfg.Part, m.part(), ErrBadConfig)
	}
	if m.err != nil {
		return nil, m.err
	}
	k, _ := m.Pick(cfg.W, cfg.Mu)
	return m.contract(k)
}

// design is DesignInto's pick: the full Result for a validated cfg from
// the menu s has just built, reading the winner's full response from
// s.resps — bit-identical to the reference design, error included.
func (m *Menu) design(a *worker.Agent, cfg Config, s *Scratch) (*Result, error) {
	if m.err != nil {
		return nil, m.err
	}
	k, ru := m.Pick(cfg.W, cfg.Mu)
	res := &Result{
		Agent:            a,
		KOpt:             k,
		Response:         s.resps[k-1],
		RequesterUtility: ru,
	}
	if cfg.WantCandidates {
		// Diagnostics get their own contracts: the published list holds
		// only what some pick actually won.
		cands := make([]Candidate, 0, cfg.Part.M)
		for j := 1; j <= cfg.Part.M; j++ {
			c, err := m.materialize(j)
			if err != nil {
				return nil, err
			}
			resp := s.resps[j-1]
			cands = append(cands, Candidate{
				K:                 j,
				Contract:          c,
				Response:          resp,
				RequesterUtility:  cfg.W*resp.Feedback - cfg.Mu*resp.Compensation,
				Clamped:           s.firstClamp != 0 && s.firstClamp <= j,
				ParticipationLift: m.lift(j),
			})
		}
		res.Candidates = cands
		res.Contract = cands[k-1].Contract
	} else {
		// The scratch's menu is private to this call, so the winner is
		// materialized directly, not published.
		c, err := m.materialize(k)
		if err != nil {
			return nil, err
		}
		res.Contract = c
	}
	res.UpperBound = UpperBound(a, cfg)
	res.LowerBound = LowerBound(a, cfg, k)
	return res, nil
}
