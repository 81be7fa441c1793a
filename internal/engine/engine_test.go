package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// archetypePopulation builds n agents drawn from exactly three behavioural
// archetypes — honest, non-collusive malicious, and collusive community —
// with identical cost parameters and requester weights within each
// archetype. The whole population therefore shares exactly three design
// fingerprints, which is what makes the dedup assertions below exact.
// Construction is fully deterministic.
func archetypePopulation(tb testing.TB, n int) *engine.Population {
	tb.Helper()
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		tb.Fatal(err)
	}
	part, err := effort.NewPartition(8, 5)
	if err != nil {
		tb.Fatal(err)
	}
	pop := &engine.Population{
		Weights:    make(map[string]float64, n),
		MaliceProb: make(map[string]float64, n),
		Part:       part,
		Mu:         1,
	}
	for i := 0; i < n; i++ {
		var (
			a      *worker.Agent
			w, mal float64
		)
		switch i % 3 {
		case 0:
			a, err = worker.NewHonest(fmt.Sprintf("h%05d", i), psi, 1, part.YMax())
			w, mal = 1, 0.05
		case 1:
			a, err = worker.NewMalicious(fmt.Sprintf("m%05d", i), psi, 1, 0.5, part.YMax())
			w, mal = 0.8, 0.9
		default:
			a, err = worker.NewCommunity(fmt.Sprintf("c%05d", i), psi, 1, 0.5, 3, part.YMax())
			w, mal = 0.5, 0.95
		}
		if err != nil {
			tb.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[a.ID] = w
		pop.MaliceProb[a.ID] = mal
	}
	return pop
}

// designPolicy routes every agent through the engine's Designer — the
// minimal cache-aware policy, used here so the tests exercise the CacheUser
// wiring exactly as platform.DynamicPolicy does.
type designPolicy struct {
	d engine.Designer
}

func (p *designPolicy) Name() string { return "test-design" }

func (p *designPolicy) UseCache(c *engine.Cache) { p.d.Cache = c }

func (p *designPolicy) Contracts(ctx context.Context, pop *engine.Population) (map[string]*contract.PiecewiseLinear, error) {
	return p.d.Contracts(ctx, pop, pop.Agents)
}

func TestNewValidation(t *testing.T) {
	pop := archetypePopulation(t, 6)
	t.Run("nil policy", func(t *testing.T) {
		if _, err := engine.New(pop, engine.Config{Rounds: 1}); !errors.Is(err, engine.ErrBadConfig) {
			t.Errorf("err = %v, want ErrBadConfig", err)
		}
	})
	t.Run("zero rounds", func(t *testing.T) {
		if _, err := engine.New(pop, engine.Config{Policy: &designPolicy{}}); !errors.Is(err, engine.ErrBadConfig) {
			t.Errorf("err = %v, want ErrBadConfig", err)
		}
	})
	t.Run("bad population", func(t *testing.T) {
		bad := archetypePopulation(t, 3)
		bad.Mu = 0
		if _, err := engine.New(bad, engine.Config{Policy: &designPolicy{}, Rounds: 1}); !errors.Is(err, engine.ErrBadPopulation) {
			t.Errorf("err = %v, want ErrBadPopulation", err)
		}
	})
}

// TestDeterminism is the reproducibility guarantee: two runs over
// identically-built populations produce identical ledgers, with and without
// the design cache — and the cached and uncached ledgers match each other,
// so the cache is a pure optimization.
func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	drift := func(round int, pop *engine.Population) {
		if round == 0 {
			return
		}
		// Deterministic weight drift: mints fresh fingerprints each round,
		// so the cached run exercises both hits and cross-round misses.
		for _, a := range pop.Agents {
			pop.Weights[a.ID] *= 1.05
		}
	}
	run := func(withCache bool) []engine.Round {
		t.Helper()
		cfg := engine.Config{Policy: &designPolicy{}, Rounds: 4, Drift: drift}
		if withCache {
			cfg.Cache = engine.NewCache()
		}
		ledger, err := engine.RunLedger(ctx, archetypePopulation(t, 30), cfg)
		if err != nil {
			t.Fatalf("RunLedger(cache=%v): %v", withCache, err)
		}
		return ledger
	}

	uncached1, uncached2 := run(false), run(false)
	cached1, cached2 := run(true), run(true)
	if !reflect.DeepEqual(uncached1, uncached2) {
		t.Error("two uncached runs diverged")
	}
	if !reflect.DeepEqual(cached1, cached2) {
		t.Error("two cached runs diverged")
	}
	if !reflect.DeepEqual(uncached1, cached1) {
		t.Error("cache changed simulation results")
	}
}

// TestObserverEventOrder pins the streaming contract: per round, the
// observer sees OnContracts, then OnRoundEnd with the completed round,
// whose outcomes list every agent in ID order.
func TestObserverEventOrder(t *testing.T) {
	pop := archetypePopulation(t, 6)
	var events []string
	obs := engine.Hooks{
		Contracts: func(round int, cs map[string]*contract.PiecewiseLinear) {
			events = append(events, fmt.Sprintf("contracts:%d:%d", round, len(cs)))
		},
		RoundEnd: func(r engine.Round) error {
			for _, oc := range r.Outcomes {
				events = append(events, fmt.Sprintf("outcome:%d:%s", r.Index, oc.AgentID))
			}
			events = append(events, fmt.Sprintf("end:%d:%d", r.Index, len(r.Outcomes)))
			return nil
		},
	}
	eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 2, Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"contracts:0:6",
		"outcome:0:c00002", "outcome:0:c00005", "outcome:0:h00000",
		"outcome:0:h00003", "outcome:0:m00001", "outcome:0:m00004",
		"end:0:6",
		"contracts:1:6",
		"outcome:1:c00002", "outcome:1:c00005", "outcome:1:h00000",
		"outcome:1:h00003", "outcome:1:m00001", "outcome:1:m00004",
		"end:1:6",
	}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("event stream:\n got %v\nwant %v", events, want)
	}
}

func TestObserverErrStopEndsRunCleanly(t *testing.T) {
	pop := archetypePopulation(t, 6)
	led := &engine.Ledger{}
	stopper := engine.Hooks{RoundEnd: func(r engine.Round) error {
		if r.Index == 1 {
			return engine.ErrStop
		}
		return nil
	}}
	eng, err := engine.New(pop, engine.Config{
		Policy:    &designPolicy{},
		Rounds:    50,
		Observers: []engine.Observer{led, stopper},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); err != nil {
		t.Fatalf("ErrStop leaked: %v", err)
	}
	if len(led.Rounds) != 2 {
		t.Errorf("rounds recorded = %d, want 2", len(led.Rounds))
	}
}

func TestObserverErrorAbortsRun(t *testing.T) {
	pop := archetypePopulation(t, 3)
	boom := errors.New("observer exploded")
	obs := engine.Hooks{RoundEnd: func(engine.Round) error { return boom }}
	eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 3, Observers: []engine.Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(context.Background()); !errors.Is(err, boom) {
		t.Errorf("err = %v, want the observer's error", err)
	}
}

// failAfterPolicy serves real contracts for n rounds, then fails.
type failAfterPolicy struct {
	inner designPolicy
	n     int
	calls int
}

func (p *failAfterPolicy) Name() string { return "fail-after" }

func (p *failAfterPolicy) Contracts(ctx context.Context, pop *engine.Population) (map[string]*contract.PiecewiseLinear, error) {
	p.calls++
	if p.calls > p.n {
		return nil, errors.New("designed to fail")
	}
	return p.inner.Contracts(ctx, pop)
}

func TestRunLedgerReturnsPartialRoundsOnError(t *testing.T) {
	pop := archetypePopulation(t, 3)
	ledger, err := engine.RunLedger(context.Background(), pop, engine.Config{
		Policy: &failAfterPolicy{n: 2},
		Rounds: 5,
	})
	if err == nil {
		t.Fatal("policy failure not surfaced")
	}
	if len(ledger) != 2 {
		t.Errorf("partial ledger = %d rounds, want 2", len(ledger))
	}
}

func TestRunContextCancellation(t *testing.T) {
	pop := archetypePopulation(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestTotalUtility(t *testing.T) {
	tests := []struct {
		name   string
		ledger []engine.Round
		want   float64
	}{
		{"nil ledger", nil, 0},
		{"empty ledger", []engine.Round{}, 0},
		{"sum", []engine.Round{{Utility: 2}, {Utility: 3.5}, {Utility: -1}}, 4.5},
		{"NaN round skipped", []engine.Round{{Utility: 1}, {Utility: math.NaN()}, {Utility: 2}}, 3},
		{"+Inf round skipped", []engine.Round{{Utility: math.Inf(1)}, {Utility: 4}}, 4},
		{"-Inf round skipped", []engine.Round{{Utility: math.Inf(-1)}, {Utility: 4}}, 4},
		{"all NaN", []engine.Round{{Utility: math.NaN()}, {Utility: math.NaN()}}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := engine.TotalUtility(tc.ledger)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("TotalUtility = %v, must always be finite", got)
			}
			if got != tc.want {
				t.Errorf("TotalUtility = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestLedgerTotal(t *testing.T) {
	led := &engine.Ledger{Rounds: []engine.Round{{Utility: 1}, {Utility: 2}}}
	if led.Total() != 3 {
		t.Errorf("Total = %v, want 3", led.Total())
	}
}
