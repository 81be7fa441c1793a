package equilibrium

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dyncontract/internal/contract"
	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

func eqFixture(t *testing.T) (*worker.Agent, core.Config) {
	t.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := worker.NewHonest("eq", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	return a, core.Config{Part: part, Mu: 1, W: 1}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	bad := []Options{
		{GridPoints: 5, Step: 0.1, Tol: 0},
		{GridPoints: 100, Step: 0, Tol: 0},
		{GridPoints: 100, Step: 0.1, Tol: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestFollowerOptimalityOfDesignedContract(t *testing.T) {
	a, cfg := eqFixture(t)
	res, err := core.DesignInto(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckFollower(a, res.Contract, cfg, res.Response.Effort, DefaultOptions())
	if err != nil {
		t.Fatalf("CheckFollower: %v", err)
	}
	if !rep.Holds {
		t.Errorf("follower check failed: grid found effort %v with utility %v > predicted %v",
			rep.BestGridEffort, rep.BestGridUtility, rep.PredictedUtility)
	}
}

func TestFollowerCheckDetectsBadPrediction(t *testing.T) {
	a, cfg := eqFixture(t)
	res, err := core.DesignInto(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Claim the worker would exert zero effort: the check must refute it
	// (the designed contract incentivizes positive effort).
	rep, err := CheckFollower(a, res.Contract, cfg, 0, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Error("follower check accepted an obviously suboptimal prediction")
	}
}

func TestLeaderLocalOptimality(t *testing.T) {
	a, cfg := eqFixture(t)
	res, err := core.DesignInto(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The designed contract is near-optimal, not exactly optimal; accept
	// improvements up to the candidate-construction slack ε but require
	// that nothing large slips through.
	opts := DefaultOptions()
	opts.Tol = 0.05
	rep, err := CheckLeader(a, res.Contract, cfg, opts)
	if err != nil {
		t.Fatalf("CheckLeader: %v", err)
	}
	if rep.Tested == 0 {
		t.Fatal("no perturbations tested")
	}
	if !rep.Holds {
		t.Errorf("leader check found %d improving perturbations (base %v, best %v)",
			rep.Improvements, rep.BaseUtility, rep.BestUtility)
	}
}

func TestLeaderCheckDetectsOverpayment(t *testing.T) {
	a, cfg := eqFixture(t)
	res, err := core.DesignInto(a, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate every compensation: cutting pay must now look attractive.
	knots := res.Contract.Knots()
	comps := res.Contract.Comps()
	for i := range comps {
		comps[i] += 2 * float64(i)
	}
	inflated, err := contract.New(knots, comps)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Step = 1.5
	rep, err := CheckLeader(a, inflated, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Error("leader check blessed an overpaying contract")
	}
}

func TestProjectMonotone(t *testing.T) {
	xs := []float64{-1, 2, 1, 3}
	projectMonotone(xs)
	want := []float64{0, 2, 2, 3}
	for i := range want {
		if xs[i] != want[i] {
			t.Errorf("projectMonotone = %v, want %v", xs, want)
		}
	}
}

// Property: designed contracts pass the follower check for random valid
// worker parameterizations.
func TestDesignedContractsFollowerProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		psi, err := effort.NewQuadratic(-(0.01 + rng.Float64()*0.03), 1+rng.Float64()*2, rng.Float64(), 25)
		if err != nil {
			return true
		}
		part, err := effort.NewPartition(4+rng.Intn(8), 25.0/float64(4+rng.Intn(8)+8))
		if err != nil {
			return true
		}
		if psi.Deriv(part.YMax()) <= 0 {
			return true
		}
		omega := 0.0
		class := worker.Honest
		if rng.Intn(2) == 1 {
			omega = rng.Float64() * 0.5
			class = worker.NonCollusiveMalicious
		}
		a := &worker.Agent{ID: "w", Class: class, Psi: psi, Beta: 0.5 + rng.Float64(), Omega: omega, Size: 1}
		cfg := core.Config{Part: part, Mu: 0.8 + rng.Float64()*0.4, W: 0.5 + rng.Float64()}
		res, err := core.DesignInto(a, cfg, nil)
		if err != nil {
			return false
		}
		opts := Options{GridPoints: 800, Step: 0.05, Tol: 1e-6}
		rep, err := CheckFollower(a, res.Contract, cfg, res.Response.Effort, opts)
		if err != nil {
			return false
		}
		return rep.Holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAuditAll(t *testing.T) {
	a, cfg := eqFixture(t)
	var entries []AuditEntry
	for _, w := range []float64{0.5, 1, 1.5} {
		c := cfg
		c.W = w
		res, err := core.DesignInto(a, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, AuditEntry{Result: res, Config: c})
	}
	opts := DefaultOptions()
	opts.Tol = 0.05 // accept the construction's epsilon slack on the leader side
	rep, err := AuditAll(entries, opts)
	if err != nil {
		t.Fatalf("AuditAll: %v", err)
	}
	if rep.Checked != 3 {
		t.Errorf("Checked = %d, want 3", rep.Checked)
	}
	if !rep.Clean() {
		t.Errorf("audit found violations: %+v", rep)
	}
}

func TestAuditAllNilEntry(t *testing.T) {
	if _, err := AuditAll([]AuditEntry{{}}, DefaultOptions()); err == nil {
		t.Error("nil result accepted")
	}
}
