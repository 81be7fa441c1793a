package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// fusedDesignInto is the batched solve with the Eq. (43) argmax fused
// into the candidate loop — DesignInto as it was before the solve was
// split into BuildMenu and Pick — kept as a test oracle: the split path
// must reproduce it bit for bit.
func fusedDesignInto(a *worker.Agent, cfg Config, s *Scratch) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(cfg.Part.YMax()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.prepare(cfg.Part, a.Psi)
	if !s.knotsMonotone {
		return ReferenceDesign(a, cfg)
	}
	firstClamp, ok := s.chain(a, cfg.Part)
	if !ok {
		return ReferenceDesign(a, cfg)
	}
	materialize := func(k int, lift float64) (*contract.PiecewiseLinear, error) {
		comps := make([]float64, len(s.knots))
		for i := range comps {
			comps[i] = s.comps[min(i, k)]
			if lift != 0 {
				comps[i] += lift
			}
		}
		return contract.New(s.knots, comps)
	}
	m := cfg.Part.M
	var candidates []Candidate
	bestK := 0
	var bestResp worker.Response
	var bestRU, bestLift float64
	for k := 1; k <= m; k++ {
		resp := bestResponse(a, cfg.Part, s.knots, s.comps, k)
		lift := 0.0
		if resp.Utility < a.Reservation {
			freeU := resp.Utility
			if freeU < 0 {
				freeU = 0
			}
			lift = a.Reservation - freeU + participationSlack(a.Reservation, s.comps[k], slices.Max(s.alphas[:k]), s.knots)
			if math.IsNaN(lift) || math.IsInf(lift, 0) {
				return ReferenceDesign(a, cfg)
			}
			for i := 0; i <= m; i++ {
				s.lifted[i] = s.comps[min(i, k)] + lift
			}
			if math.IsInf(s.lifted[m], 0) {
				return ReferenceDesign(a, cfg)
			}
			resp = bestResponse(a, cfg.Part, s.knots, s.lifted, m)
			if resp.Utility < a.Reservation {
				return ReferenceDesign(a, cfg)
			}
		}
		ru := cfg.W*resp.Feedback - cfg.Mu*resp.Compensation
		if cfg.WantCandidates {
			c, err := materialize(k, lift)
			if err != nil {
				return ReferenceDesign(a, cfg)
			}
			candidates = append(candidates, Candidate{
				K: k, Contract: c, Response: resp, RequesterUtility: ru,
				Clamped: firstClamp != 0 && firstClamp <= k, ParticipationLift: lift,
			})
		}
		if bestK == 0 || ru > bestRU {
			bestK, bestResp, bestRU, bestLift = k, resp, ru, lift
		}
	}
	res := &Result{Agent: a, KOpt: bestK, Response: bestResp, RequesterUtility: bestRU}
	if cfg.WantCandidates {
		res.Candidates = candidates
		res.Contract = candidates[bestK-1].Contract
	} else {
		c, err := materialize(bestK, bestLift)
		if err != nil {
			return ReferenceDesign(a, cfg)
		}
		res.Contract = c
	}
	res.UpperBound = UpperBound(a, cfg)
	res.LowerBound = LowerBound(a, cfg, bestK)
	return res, nil
}

// sameBits reports bitwise float equality (−0 ≠ +0, NaN payloads
// compared).
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameResponseBits(a, b worker.Response) bool {
	return sameBits(a.Effort, b.Effort) && sameBits(a.Feedback, b.Feedback) &&
		sameBits(a.Compensation, b.Compensation) && sameBits(a.Utility, b.Utility) &&
		a.Interval == b.Interval && a.Declined == b.Declined
}

func sameContractBits(a, b *contract.PiecewiseLinear) bool {
	if a.Pieces() != b.Pieces() {
		return false
	}
	for l := 0; l <= a.Pieces(); l++ {
		if !sameBits(a.Knot(l), b.Knot(l)) || !sameBits(a.Comp(l), b.Comp(l)) {
			return false
		}
	}
	return true
}

// requireBitIdentical asserts got equals want in the Float64bits of every
// knot and comp, and in KOpt, response, requester utility, both bounds and
// every candidate's diagnostics.
func requireBitIdentical(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.KOpt != want.KOpt {
		t.Fatalf("%s: KOpt = %d, want %d", label, got.KOpt, want.KOpt)
	}
	if !sameContractBits(want.Contract, got.Contract) {
		t.Fatalf("%s: contract bits differ:\n got %v\nwant %v", label, got.Contract, want.Contract)
	}
	if !sameResponseBits(want.Response, got.Response) {
		t.Fatalf("%s: response differs:\n got %+v\nwant %+v", label, got.Response, want.Response)
	}
	if !sameBits(got.RequesterUtility, want.RequesterUtility) ||
		!sameBits(got.UpperBound, want.UpperBound) || !sameBits(got.LowerBound, want.LowerBound) {
		t.Fatalf("%s: (RU, UB, LB) = (%v, %v, %v), want (%v, %v, %v)", label,
			got.RequesterUtility, got.UpperBound, got.LowerBound,
			want.RequesterUtility, want.UpperBound, want.LowerBound)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: candidates = %d, want %d", label, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		wc, gc := want.Candidates[i], got.Candidates[i]
		if gc.K != wc.K || gc.Clamped != wc.Clamped || !sameBits(gc.ParticipationLift, wc.ParticipationLift) ||
			!sameBits(gc.RequesterUtility, wc.RequesterUtility) || !sameResponseBits(gc.Response, wc.Response) ||
			!sameContractBits(gc.Contract, wc.Contract) {
			t.Fatalf("%s: candidate %d differs:\n got %+v\nwant %+v", label, i, gc, wc)
		}
	}
}

// pickWeights are the requester weights every menu is picked at: sign
// flips, both zeros, the tiny and the huge, and a midrange value.
var pickWeights = []float64{1, 0.37, -0.5, 0, math.Copysign(0, -1), 5e-324, 1e-300, -1e-300, 1e300, -1e300}

// pickMus are the μ values every weight is picked at.
var pickMus = []float64{1, 0.25, 3.5, 1e-300}

// checkMenuPicks builds one menu for a and picks it at every (w, μ) in
// ws × mus: DesignInto and the fused oracle must equal ReferenceDesign
// bit for bit, and the shared menu's pick and contract must equal the
// reference's KOpt, requester utility and contract, errors by text.
// Picks winning the same k must share one contract pointer.
func checkMenuPicks(t *testing.T, a *worker.Agent, part effort.Partition, ws, mus []float64) *Menu {
	t.Helper()
	menu, menuErr := BuildMenu(a, part, &Scratch{})
	s := &Scratch{}
	shared := make(map[int]*contract.PiecewiseLinear)
	for _, mu := range mus {
		for _, w := range ws {
			for _, want := range []bool{false, true} {
				cfg := Config{Part: part, Mu: mu, W: w, WantCandidates: want}
				label := fmt.Sprintf("%s w=%v mu=%v", a.ID, w, mu)
				ref, refErr := ReferenceDesign(a, cfg)
				fused, fusedErr := fusedDesignInto(a, cfg, &Scratch{})
				into, intoErr := DesignInto(a, cfg, s)
				var got *contract.PiecewiseLinear
				gotErr := menuErr
				if menuErr == nil {
					got, gotErr = menu.ContractFor(cfg)
				}
				if (refErr == nil) != (fusedErr == nil) {
					t.Fatalf("%s: oracle disagreement: reference %v, fused %v", label, refErr, fusedErr)
				}
				if refErr != nil {
					if intoErr == nil || intoErr.Error() != refErr.Error() {
						t.Fatalf("%s: DesignInto error %v, want %q", label, intoErr, refErr)
					}
					if gotErr == nil || (menuErr == nil && gotErr.Error() != refErr.Error()) {
						t.Fatalf("%s: menu error %v, want %q", label, gotErr, refErr)
					}
					continue
				}
				if gotErr != nil || intoErr != nil {
					t.Fatalf("%s: menu %v / DesignInto %v, reference succeeded", label, gotErr, intoErr)
				}
				requireBitIdentical(t, "fused", ref, fused)
				requireBitIdentical(t, "DesignInto", ref, into)
				if !sameContractBits(ref.Contract, got) {
					t.Fatalf("%s: menu contract bits differ:\n got %v\nwant %v", label, got, ref.Contract)
				}
				k, ru := menu.Pick(w, mu)
				if k != ref.KOpt || !sameBits(ru, ref.RequesterUtility) {
					t.Fatalf("%s: Pick = (%d, %v), reference (%d, %v)", label, k, ru, ref.KOpt, ref.RequesterUtility)
				}
				if prev, ok := shared[k]; ok && prev != got {
					t.Fatalf("%s: k=%d materialized twice", label, k)
				}
				shared[k] = got
			}
		}
	}
	return menu
}

// pickAgents covers every class, a reservation that forces the lift, an ω
// large enough to clamp the chain, a feedback scale (ψ(0) = 1e5) at which
// one ulp of q moves candidate 2's pay by more than the compensation-side
// slack, so only the feedback-side term secures its lift, and three
// agents whose designs fail: a degenerate ψ whose knots round flat, a β
// whose slope chain overflows, and a malicious worker whose ω·ψ(y) is so
// negative that even its reservation-free utility is below zero, which
// the lift (measured from a free utility of zero) cannot make up.
func pickAgents(t *testing.T) (map[string]*worker.Agent, effort.Partition) {
	t.Helper()
	psi := stdPsi(t)
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(a *worker.Agent, err error) *worker.Agent {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	reserved := mk(worker.NewMalicious("reserved", psi, 1, 0.2, part.YMax()))
	reserved.Reservation = 60
	flat, err := effort.NewQuadratic(-1e-12, 1e-3, 1e16, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	far, err := effort.NewQuadratic(-1e-5, 2, 1e5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	unliftable := mk(worker.NewHonest("unliftable", far, 1e3, part.YMax()))
	unliftable.Reservation = 1
	below, err := effort.NewQuadratic(-1e-5, 2, -1e5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	declining := mk(worker.NewMalicious("declining", below, 1e3, 0.5, part.YMax()))
	declining.Reservation = 1
	return map[string]*worker.Agent{
		"honest":     mk(worker.NewHonest("honest", psi, 1, part.YMax())),
		"malicious":  mk(worker.NewMalicious("malicious", psi, 1, 0.5, part.YMax())),
		"community":  mk(worker.NewCommunity("community", psi, 1, 0.5, 3, part.YMax())),
		"reserved":   reserved,
		"clamped":    mk(worker.NewMalicious("clamped", psi, 1, 5, part.YMax())),
		"degenerate": mk(worker.NewHonest("degenerate", flat, 1, part.YMax())),
		"overflow":   mk(worker.NewHonest("overflow", psi, 1e200, part.YMax())),
		"unliftable": unliftable,
		"declining":  declining,
	}, part
}

// TestMenuPickMatchesDesign is the seeded differential table: every agent
// corner, every pick weight and μ, ReferenceDesign vs the fused oracle vs
// DesignInto vs one shared menu.
func TestMenuPickMatchesDesign(t *testing.T) {
	agents, part := pickAgents(t)
	for name, a := range agents {
		t.Run(name, func(t *testing.T) {
			menu := checkMenuPicks(t, a, part, pickWeights, pickMus)
			// Coverage guards: each corner must actually occur.
			switch name {
			case "degenerate", "overflow", "declining":
				want := map[string]string{
					"degenerate": "build contract: knot 1 (1e+16) <= knot 0 (1e+16)",
					"overflow":   "candidate k=1: build contract: non-finite entry at 1",
					"declining":  "candidate k=1: core: lift",
				}[name]
				if menu.err == nil || !strings.Contains(menu.err.Error(), want) {
					t.Errorf("menu error %v, want one containing %q", menu.err, want)
				}
			case "reserved":
				if menu.lift(1) <= 0 {
					t.Error("reservation produced no participation lift")
				}
			case "unliftable":
				if menu.err != nil || menu.lift(2) <= 0 {
					t.Fatalf("menu error %v, lift %v: want candidate 2 lifted", menu.err, menu.lift(2))
				}
				res, err := DesignInto(a, Config{Part: part, Mu: 1, W: 1}, nil)
				if err != nil || res.Response.Declined || res.Response.Utility < a.Reservation {
					t.Errorf("design %+v (err %v): want the worker to participate", res, err)
				}
			case "clamped":
				s := &Scratch{}
				if _, err := BuildMenu(a, part, s); err != nil || s.firstClamp == 0 {
					t.Errorf("large ω clamped no slope (BuildMenu err %v)", err)
				}
			}
		})
	}
}

// TestMenuPickTieGoesToSmallerK pins the tie rule. A chain clamped from
// piece l on makes every candidate k ≥ l−1 the same contract, so their
// responses — and requester utilities at any (w, μ) — tie exactly; the
// reference picks the smallest such k, and so must Pick (a >= comparison would pick
// the largest). The synthetic menu pins the rule independent of the solve.
func TestMenuPickTieGoesToSmallerK(t *testing.T) {
	agents, part := pickAgents(t)
	a := agents["clamped"]
	menu, err := BuildMenu(a, part, nil)
	if err != nil {
		t.Fatal(err)
	}
	ties := 0
	for _, w := range pickWeights {
		k, ru := menu.Pick(w, 1)
		for j := k + 1; j <= part.M; j++ {
			if u := w*menu.vals[2*(j-1)] - menu.vals[2*(j-1)+1]; u == ru {
				ties++
			}
		}
		want, err := ReferenceDesign(a, Config{Part: part, Mu: 1, W: w})
		if err != nil {
			t.Fatal(err)
		}
		if k != want.KOpt {
			t.Fatalf("w=%v: Pick k=%d, reference KOpt=%d", w, k, want.KOpt)
		}
	}
	if ties == 0 {
		t.Fatal("clamped menu produced no exact tie at its argmax; the case proves nothing")
	}

	// (F, C) per candidate: k = 2 and 3 tie at the top.
	synthetic := &Menu{knots: make([]float64, 4), vals: []float64{1, 1, 2, 1, 2, 1}}
	if k, ru := synthetic.Pick(1, 1); k != 2 || ru != 1 {
		t.Fatalf("synthetic two-way tie: Pick = (k=%d, ru=%v), want (2, 1)", k, ru)
	}
}

// TestMenuSize pins a menu at 80 bytes, one allocator size class: the
// cache holds one per live design key, so each byte more is paid per key
// in every key-churning session (perfbench restart's heap_live_mb).
func TestMenuSize(t *testing.T) {
	if n := unsafe.Sizeof(Menu{}); n > 80 {
		t.Fatalf("Menu is %d bytes, want <= 80", n)
	}
}

// TestMenuContractSharedAcrossGoroutines pins the lazy publication:
// goroutines racing to materialize candidates — several at each weight —
// all receive one pointer per k, on the menu's knot grid.
func TestMenuContractSharedAcrossGoroutines(t *testing.T) {
	agents, part := pickAgents(t)
	a := agents["malicious"]
	menu, err := BuildMenu(a, part, nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := []float64{1, 0.2, 5, 1, 0.2, 5, 1, 0.2, 5}
	got := make([]*contract.PiecewiseLinear, len(ws))
	done := make(chan struct{})
	for i, w := range ws {
		go func() {
			defer func() { done <- struct{}{} }()
			c, err := menu.ContractFor(Config{Part: part, Mu: 1, W: w})
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	for range ws {
		<-done
	}
	byK := make(map[int]*contract.PiecewiseLinear)
	for i, w := range ws {
		k, _ := menu.Pick(w, 1)
		if prev, ok := byK[k]; ok && prev != got[i] {
			t.Fatalf("k=%d published twice", k)
		}
		byK[k] = got[i]
	}
	if len(byK) < 2 {
		t.Fatal("weights picked one candidate; the race covers nothing")
	}
}

// TestMenuDesignRejectsForeignPartition pins that a menu refuses a
// config on another partition rather than picking from the wrong menu.
func TestMenuDesignRejectsForeignPartition(t *testing.T) {
	agents, part := pickAgents(t)
	a := agents["honest"]
	menu, err := BuildMenu(a, part, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := effort.NewPartition(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := menu.ContractFor(Config{Part: other, Mu: 1, W: 1}); err == nil {
		t.Fatal("menu picked under a foreign partition")
	}
	if _, err := BuildMenu(a, effort.Partition{}, nil); err == nil {
		t.Fatal("BuildMenu accepted a zero partition")
	}
}

// FuzzMenuPick fuzzes the worker side of one menu — class, ψ, β, ω,
// reservation, partition — and picks it at two fuzzed weights (plus their
// negations and the fixed pickWeights corners) under two fuzzed μ, each
// checked bit for bit against ReferenceDesign and the fused oracle. Five
// of the last six seeds reach each construction error: non-monotone
// knots, a non-finite chain at candidate 1 and at candidate 4, a
// participation lift that overflows, and one that fails to secure
// participation; the other is a reservation of 1e15, which the lift
// secures.
func FuzzMenuPick(f *testing.F) {
	f.Add(uint8(0), -0.02, 2.0, 1.0, 1.0, 0.0, 0.0, 10, 4.0, 1.0, 0.3, 1.0, 2.0)
	f.Add(uint8(1), -0.02, 2.0, 1.0, 1.0, 0.5, 0.0, 8, 5.0, 0.8, -1.2, 1.2, 0.5)
	f.Add(uint8(2), -0.01, 1.5, 0.5, 2.0, 5.0, 0.0, 6, 5.0, 0.5, 7.0, 0.5, 1.0)   // heavy clamping
	f.Add(uint8(1), -0.02, 2.0, 1.0, 1.0, 0.2, 80.0, 12, 3.0, 1.0, 0.0, 1.0, 3.0) // forced lift
	f.Add(uint8(0), -1e-12, 1e-3, 1e16, 1.0, 0.0, 0.0, 10, 4.0, 1.0, 2.0, 1.0, 1.0)
	f.Add(uint8(0), -0.02, 2.0, 1.0, 1e200, 0.0, 0.0, 10, 4.0, 1.0, 2.0, 1.0, 1.0)
	f.Add(uint8(0), -1e-160, 1.0, 0.0, 1e150, 0.0, 0.0, 10, 5e157, 1.0, 2.0, 1.0, 1.0)
	f.Add(uint8(0), -1e-160, 0.01, 0.0, 1e148, 0.0, math.MaxFloat64, 8, 1e155, 1.0, 2.0, 1.0, 1.0)
	f.Add(uint8(0), -0.0075, 0.06, 0.0, 1e10, 0.0, 1e15, 4, 0.5, 1.0, 2.0, 1.0, 1.0) // large reservation
	f.Add(uint8(0), -1e-5, 2.0, 1e5, 1e3, 0.0, 1.0, 10, 4.0, 1.0, 2.0, 1.0, 1.0)     // far feedback
	f.Add(uint8(1), -1e-5, 2.0, -1e5, 1e3, 0.5, 1.0, 10, 4.0, 1.0, 2.0, 1.0, 1.0)    // failed lift
	f.Fuzz(func(t *testing.T, class uint8, r2, r1, r0, beta, omega, reservation float64, m int, delta, w1, w2, mu1, mu2 float64) {
		if m < 1 || m > 32 || !(delta > 0) {
			return
		}
		yMax := float64(m) * delta
		psi, err := effort.NewQuadratic(r2, r1, r0, yMax)
		if err != nil {
			return
		}
		part, err := effort.NewPartition(m, delta)
		if err != nil {
			return
		}
		var a *worker.Agent
		switch class % 3 {
		case 0:
			a, err = worker.NewHonest("fz", psi, beta, yMax)
		case 1:
			a, err = worker.NewMalicious("fz", psi, beta, omega, yMax)
		default:
			a, err = worker.NewCommunity("fz", psi, beta, omega, 3, yMax)
		}
		if err != nil {
			return
		}
		if reservation >= 0 && !math.IsInf(reservation, 0) {
			a.Reservation = reservation
		}
		ws := append([]float64{w1, -w1, w2, -w2}, pickWeights...)
		checkMenuPicks(t, a, part, ws, []float64{mu1, mu2})
	})
}
