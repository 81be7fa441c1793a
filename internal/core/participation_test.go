package core

import (
	"math"
	"testing"
	"testing/quick"

	"math/rand"

	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// reservedAgent builds an honest agent with a reservation utility.
func reservedAgent(t *testing.T, reservation float64) *worker.Agent {
	t.Helper()
	a, err := worker.NewHonest("res", stdPsi(t), 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	a.Reservation = reservation
	if err := a.Validate(40); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDesignZeroReservationUnchanged(t *testing.T) {
	// Reservation 0 must reproduce the base design exactly.
	base, err := ReferenceDesign(honestAgent(t), stdConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	reserved, err := ReferenceDesign(reservedAgent(t, 0), stdConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Contract.Equal(reserved.Contract) {
		t.Error("zero reservation changed the contract")
	}
	for _, cand := range reserved.Candidates {
		if cand.ParticipationLift != 0 {
			t.Errorf("k=%d: lift %v with zero reservation", cand.K, cand.ParticipationLift)
		}
	}
}

func TestDesignParticipationLift(t *testing.T) {
	// A reservation above the base design's worker utility forces a lift.
	base, err := ReferenceDesign(honestAgent(t), stdConfig(t, 10))
	if err != nil {
		t.Fatal(err)
	}
	reservation := base.Response.Utility + 2
	res, err := ReferenceDesign(reservedAgent(t, reservation), stdConfig(t, 10))
	if err != nil {
		t.Fatalf("Design with reservation: %v", err)
	}
	if res.Response.Declined {
		t.Fatal("designed contract still declined")
	}
	// Worker utility meets the reservation (minimally).
	if res.Response.Utility < reservation {
		t.Errorf("worker utility %v below reservation %v", res.Response.Utility, reservation)
	}
	chosen := res.Candidates[res.KOpt-1]
	if chosen.ParticipationLift <= 0 {
		t.Errorf("lift = %v, want positive", chosen.ParticipationLift)
	}
	// The lift preserves incentives: same induced effort as the base
	// design at the same k.
	baseCand := base.Candidates[res.KOpt-1]
	if math.Abs(chosen.Response.Effort-baseCand.Response.Effort) > 1e-9 {
		t.Errorf("lift changed induced effort: %v vs %v",
			chosen.Response.Effort, baseCand.Response.Effort)
	}
	// And it costs the requester exactly μ·lift more at that candidate.
	extraCost := chosen.Response.Compensation - baseCand.Response.Compensation
	if math.Abs(extraCost-chosen.ParticipationLift) > 1e-6 {
		t.Errorf("lift %v but compensation rose by %v", chosen.ParticipationLift, extraCost)
	}
}

func TestDesignHighReservationStillParticipates(t *testing.T) {
	// Even absurd reservations are satisfiable by lifting (the requester
	// may not want to, but the contract is individually rational).
	res, err := ReferenceDesign(reservedAgent(t, 100), stdConfig(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Response.Declined {
		t.Error("declined despite participation lift")
	}
	if res.Response.Utility < 100 {
		t.Errorf("utility %v below reservation 100", res.Response.Utility)
	}
	// The requester's utility reflects the expensive lift.
	if res.RequesterUtility > 0 {
		t.Logf("note: requester still profits (%v) despite reservation 100", res.RequesterUtility)
	}
}

// TestDesignLargeReservationParticipates designs for reservations from
// 1e8 to 1e15, where a fixed 1e-9 slack falls below one ulp of the lifted
// compensations: every candidate must secure participation — the
// reference, the batched solve and a built menu alike — and the worker's
// own best response to each lifted contract must clear the reservation.
func TestDesignLargeReservationParticipates(t *testing.T) {
	cfg := stdConfig(t, 10)
	for e := 8; e <= 15; e++ {
		r := math.Pow(10, float64(e))
		a := reservedAgent(t, r)
		want, err := ReferenceDesign(a, cfg)
		if err != nil {
			t.Fatalf("reservation %g: %v", r, err)
		}
		got, err := DesignInto(a, cfg, nil)
		if err != nil {
			t.Fatalf("reservation %g: DesignInto: %v", r, err)
		}
		requireSameResult(t, want, got)
		menu, err := BuildMenu(a, cfg.Part, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := menu.ContractFor(cfg)
		if err != nil || !sameContractBits(c, want.Contract) {
			t.Fatalf("reservation %g: menu contract %v (%v), reference %v", r, c, err, want.Contract)
		}
		for _, cand := range want.Candidates {
			resp, err := a.BestResponse(cand.Contract, cfg.Part)
			if err != nil {
				t.Fatal(err)
			}
			if cand.ParticipationLift <= 0 || resp.Declined || resp.Utility < r {
				t.Errorf("reservation %g, k=%d: lift %v, worker utility %v (declined %v)",
					r, cand.K, cand.ParticipationLift, resp.Utility, resp.Declined)
			}
		}
	}
}

// TestParticipationSlackOrdinaryMagnitudes pins the slack at exactly
// 1e-9 wherever reservation plus top compensation stays within 1e4, so
// the contracts, ledgers and snapshots of ordinary designs keep their
// bytes, and scaled with the magnitude above.
func TestParticipationSlackOrdinaryMagnitudes(t *testing.T) {
	for _, tc := range [][2]float64{{0, 0}, {60, 0}, {0, 1e4}, {5e3, 5e3}, {1e3, 250}} {
		if got := participationSlack(tc[0], tc[1], 0, []float64{0}); got != 1e-9 {
			t.Errorf("participationSlack(%g, %g) = %g, want 1e-9", tc[0], tc[1], got)
		}
	}
	if got := participationSlack(1e8, 1e2, 0, []float64{0}); got <= 1e-9 || got > 1e-4 {
		t.Errorf("participationSlack(1e8, 1e2) = %g, want it scaled with the magnitude", got)
	}
}

// Property: designed contracts are always individually rational — the
// worker participates and clears the reservation.
func TestDesignIndividualRationalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		psi, err := effort.NewQuadratic(-0.01-rng.Float64()*0.02, 1.5+rng.Float64(), rng.Float64(), 30)
		if err != nil {
			return true
		}
		part, err := effort.NewPartition(4+rng.Intn(8), 2)
		if err != nil {
			return true
		}
		if psi.Deriv(part.YMax()) <= 0 {
			return true
		}
		a, err := worker.NewHonest("w", psi, 0.5+rng.Float64(), part.YMax())
		if err != nil {
			return true
		}
		a.Reservation = rng.Float64() * 20
		res, err := ReferenceDesign(a, Config{Part: part, Mu: 1, W: 0.5 + rng.Float64()})
		if err != nil {
			return false
		}
		return !res.Response.Declined && res.Response.Utility >= a.Reservation-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
