package core

import (
	"math"
	"strings"
	"testing"

	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// equalResponses is exact float equality, field for field — the batch
// solve promises bit-identical responses, so no tolerance is allowed.
func equalResponses(a, b worker.Response) bool {
	return a.Effort == b.Effort &&
		a.Feedback == b.Feedback &&
		a.Compensation == b.Compensation &&
		a.Utility == b.Utility &&
		a.Interval == b.Interval &&
		a.Declined == b.Declined
}

// requireSameResult asserts the batched result matches the reference
// bit for bit: contract knots/comps, KOpt, response, bounds, and (when
// present) every per-k candidate's diagnostics.
func requireSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if got.KOpt != want.KOpt {
		t.Fatalf("KOpt = %d, want %d", got.KOpt, want.KOpt)
	}
	if !want.Contract.Equal(got.Contract) {
		t.Fatalf("contract differs:\n got %v\nwant %v", got.Contract, want.Contract)
	}
	if !equalResponses(want.Response, got.Response) {
		t.Fatalf("response differs:\n got %+v\nwant %+v", got.Response, want.Response)
	}
	if got.RequesterUtility != want.RequesterUtility {
		t.Fatalf("requester utility = %v, want %v", got.RequesterUtility, want.RequesterUtility)
	}
	if got.UpperBound != want.UpperBound || got.LowerBound != want.LowerBound {
		t.Fatalf("bounds = (%v, %v), want (%v, %v)",
			got.UpperBound, got.LowerBound, want.UpperBound, want.LowerBound)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("candidates = %d, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		wc, gc := want.Candidates[i], got.Candidates[i]
		if gc.K != wc.K || gc.Clamped != wc.Clamped || gc.ParticipationLift != wc.ParticipationLift {
			t.Fatalf("candidate %d: (k=%d clamped=%v lift=%v), want (k=%d clamped=%v lift=%v)",
				i, gc.K, gc.Clamped, gc.ParticipationLift, wc.K, wc.Clamped, wc.ParticipationLift)
		}
		if !wc.Contract.Equal(gc.Contract) {
			t.Fatalf("candidate %d contract differs:\n got %v\nwant %v", i, gc.Contract, wc.Contract)
		}
		if !equalResponses(wc.Response, gc.Response) {
			t.Fatalf("candidate %d response differs:\n got %+v\nwant %+v", i, gc.Response, wc.Response)
		}
		if gc.RequesterUtility != wc.RequesterUtility {
			t.Fatalf("candidate %d RU = %v, want %v", i, gc.RequesterUtility, wc.RequesterUtility)
		}
	}
}

// batchCases spans the behavioural corners of the solve: plain honest,
// malicious (ω > 0), a collusive community meta-worker, a reservation
// that forces the participation lift, an ω large enough to clamp slopes,
// and a negative requester weight (argmax ties and negative utilities).
func batchCases(t *testing.T) map[string]struct {
	agent *worker.Agent
	cfg   Config
} {
	t.Helper()
	psi := stdPsi(t)
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := worker.NewHonest("h", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	malicious, err := worker.NewMalicious("m", psi, 1, 0.5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	community, err := worker.NewCommunity("c", psi, 1, 0.5, 3, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	reserved, err := worker.NewHonest("r", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	reserved.Reservation = 60 // above any candidate's voluntary utility: every k lifts
	clamped, err := worker.NewMalicious("cl", psi, 1, 5, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Part: part, Mu: 1, W: 1, WantCandidates: true}
	negW := base
	negW.W = -0.5
	return map[string]struct {
		agent *worker.Agent
		cfg   Config
	}{
		"honest":      {honest, base},
		"malicious":   {malicious, base},
		"community":   {community, base},
		"reservation": {reserved, base},
		"clamped":     {clamped, base},
		"negative-w":  {honest, negW},
	}
}

func TestDesignIntoMatchesDesign(t *testing.T) {
	scratch := &Scratch{} // shared across subtests: reuse must not leak state
	for name, tc := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			want, err := ReferenceDesign(tc.agent, tc.cfg)
			if err != nil {
				t.Fatalf("ReferenceDesign: %v", err)
			}
			got, err := DesignInto(tc.agent, tc.cfg, scratch)
			if err != nil {
				t.Fatalf("DesignInto: %v", err)
			}
			requireSameResult(t, want, got)

			// Behavioural coverage guards: the corner each case exists for
			// must actually occur, or the differential proves nothing.
			switch name {
			case "reservation":
				if got.Candidates[got.KOpt-1].ParticipationLift <= 0 {
					t.Error("reservation case produced no participation lift")
				}
			case "clamped":
				anyClamped := false
				for _, c := range got.Candidates {
					anyClamped = anyClamped || c.Clamped
				}
				if !anyClamped {
					t.Error("clamped case produced no clamped candidate")
				}
			}

			// Winner-only mode drops the diagnostics but nothing else.
			lean := tc.cfg
			lean.WantCandidates = false
			leanGot, err := DesignInto(tc.agent, lean, scratch)
			if err != nil {
				t.Fatalf("DesignInto (lean): %v", err)
			}
			if leanGot.Candidates != nil {
				t.Error("lean result carries candidates")
			}
			leanGot.Candidates = want.Candidates // borrow for the comparison
			requireSameResult(t, want, leanGot)
		})
	}
	if scratch.Uses() == 0 {
		t.Error("scratch was never used")
	}
}

// TestDesignIntoNilScratch pins that a nil scratch is accepted (a
// temporary is used) and changes nothing about the result.
func TestDesignIntoNilScratch(t *testing.T) {
	a := honestAgent(t)
	cfg := stdConfig(t, 10)
	want, err := ReferenceDesign(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DesignInto(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, want, got)
}

// TestDesignIntoScratchAcrossPartitions drives one scratch through
// alternating partition sizes and ψ curves, pinning that the knot cache
// and buffer reuse never leak state between heterogeneous solves.
func TestDesignIntoScratchAcrossPartitions(t *testing.T) {
	scratch := &Scratch{}
	psiA := stdPsi(t)
	psiB, err := effort.NewQuadratic(-0.01, 1.5, 0.5, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{20, 4, 12, 4, 20} {
		for _, psi := range []effort.Quadratic{psiA, psiB} {
			part, err := effort.NewPartition(m, 40.0/float64(m))
			if err != nil {
				t.Fatal(err)
			}
			a, err := worker.NewMalicious("x", psi, 1, 0.3, part.YMax())
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Part: part, Mu: 1, W: 1, WantCandidates: true}
			want, err := ReferenceDesign(a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DesignInto(a, cfg, scratch)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, want, got)
		}
	}
}

// TestDesignIntoErrorsMatchDesign pins that a failing design fails
// through DesignInto, and through a built menu's ContractFor, with exactly
// ReferenceDesign's error text: an invalid config, and every construction
// error the solve can reach. The other texts contract.New can produce — a
// negative or decreasing compensation, a shape error — and a failed best
// response cannot arise from a validated agent and partition.
func TestDesignIntoErrorsMatchDesign(t *testing.T) {
	bad := stdConfig(t, 10)
	bad.Mu = -1
	cases := []struct {
		name                   string
		r2, r1, r0, beta, resv float64
		m                      int
		delta                  float64
		cfg                    *Config
		want                   string
	}{
		{name: "config", r2: -0.02, r1: 2, r0: 1, beta: 1, m: 10, delta: 4, cfg: &bad, want: "mu=-1 must be positive"},
		{name: "knots", r2: -1e-12, r1: 1e-3, r0: 1e16, beta: 1, m: 10, delta: 4,
			want: "core: candidate k=1: build contract: knot 1 (1e+16) <= knot 0 (1e+16)"},
		{name: "chain", r2: -0.02, r1: 2, r0: 1, beta: 1e200, m: 10, delta: 4,
			want: "core: candidate k=1: build contract: non-finite entry at 1"},
		{name: "late-chain", r2: -1e-160, r1: 1, beta: 1e150, m: 10, delta: 5e157,
			want: "core: candidate k=4: build contract: non-finite entry at 4"},
		{name: "lift-overflow", r2: -1e-160, r1: 0.01, beta: 1e148, resv: math.MaxFloat64, m: 8, delta: 1e155,
			want: "core: candidate k=1: participation lift: non-finite entry at 1"},
		{name: "lift-failed", r2: -0.0075, r1: 0.06, beta: 1e10, resv: 1e15, m: 4, delta: 0.5,
			want: "core: candidate k=3: core: lift"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			yMax := float64(tc.m) * tc.delta
			psi, err := effort.NewQuadratic(tc.r2, tc.r1, tc.r0, yMax)
			if err != nil {
				t.Fatal(err)
			}
			part, err := effort.NewPartition(tc.m, tc.delta)
			if err != nil {
				t.Fatal(err)
			}
			a, err := worker.NewHonest("e", psi, tc.beta, yMax)
			if err != nil {
				t.Fatal(err)
			}
			a.Reservation = tc.resv
			cfg := Config{Part: part, Mu: 1, W: 1}
			if tc.cfg != nil {
				cfg = *tc.cfg
			}
			_, wantErr := ReferenceDesign(a, cfg)
			if wantErr == nil || !strings.Contains(wantErr.Error(), tc.want) {
				t.Fatalf("reference error %v, want one containing %q", wantErr, tc.want)
			}
			_, gotErr := DesignInto(a, cfg, nil)
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("DesignInto error mismatch:\n got %v\nwant %q", gotErr, wantErr)
			}
			menu, err := BuildMenu(a, part, nil)
			if err != nil {
				t.Fatalf("BuildMenu: %v", err)
			}
			if _, gotErr := menu.ContractFor(cfg); gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("ContractFor error mismatch:\n got %v\nwant %q", gotErr, wantErr)
			}
		})
	}
}

// FuzzDesignIntoMatchesDesign fuzzes the full parameter space — cost
// curve (r2, r1, r0), worker (β, ω, reservation), requester (w, μ), and
// partition (m, δ) — asserting the batched solve and ReferenceDesign
// agree on the (result, error) pair exactly. The last five seeds reach
// each construction error (see TestDesignIntoErrorsMatchDesign).
func FuzzDesignIntoMatchesDesign(f *testing.F) {
	f.Add(-0.02, 2.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 10, 4.0)
	f.Add(-0.02, 2.0, 1.0, 1.0, 0.5, 0.0, 0.8, 1.2, 8, 5.0)
	f.Add(-0.01, 1.5, 0.5, 2.0, 5.0, 0.0, 1.0, 0.5, 6, 5.0)   // heavy clamping
	f.Add(-0.02, 2.0, 1.0, 1.0, 0.0, 80.0, 1.0, 1.0, 12, 3.0) // forced lift
	f.Add(-0.02, 2.0, 1.0, 1.0, 0.2, 0.0, -0.5, 1.0, 5, 8.0)  // negative w
	f.Add(-1e-12, 1e-3, 1e16, 1.0, 0.0, 0.0, 1.0, 1.0, 10, 4.0)
	f.Add(-0.02, 2.0, 1.0, 1e200, 0.0, 0.0, 1.0, 1.0, 10, 4.0)
	f.Add(-1e-160, 1.0, 0.0, 1e150, 0.0, 0.0, 1.0, 1.0, 10, 5e157)
	f.Add(-1e-160, 0.01, 0.0, 1e148, 0.0, math.MaxFloat64, 1.0, 1.0, 8, 1e155)
	f.Add(-0.0075, 0.06, 0.0, 1e10, 0.0, 1e15, 1.0, 1.0, 4, 0.5)
	f.Fuzz(func(t *testing.T, r2, r1, r0, beta, omega, reservation, w, mu float64, m int, delta float64) {
		if m < 1 || m > 64 || !(delta > 0) {
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
		a, err := worker.NewMalicious("fz", psi, beta, omega, yMax)
		if err != nil {
			return
		}
		if reservation >= 0 && !math.IsInf(reservation, 0) {
			a.Reservation = reservation
		}
		cfg := Config{Part: part, Mu: mu, W: w, WantCandidates: true}

		want, wantErr := ReferenceDesign(a, cfg)
		got, gotErr := DesignInto(a, cfg, &Scratch{})
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error disagreement: reference %v, batch %v", wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("error mismatch:\n got %q\nwant %q", gotErr, wantErr)
			}
			return
		}
		requireSameResult(t, want, got)
	})
}
