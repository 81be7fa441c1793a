package engine_test

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/engine"
	"dyncontract/internal/telemetry"
)

// renderContracts renders a per-ID contract map by value: one line per
// ID in ID order, with the contract's JSON (or <nil>), and "<no map>"
// for a nil map.
func renderContracts(cs map[string]*contract.PiecewiseLinear) string {
	if cs == nil {
		return "<no map>"
	}
	ids := make([]string, 0, len(cs))
	for id := range cs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte('=')
		if c := cs[id]; c == nil {
			b.WriteString("<nil>")
		} else {
			b.Write(c.AppendJSON(nil))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mapRecorder renders the contract map of every round it is handed.
// It implements no WantsContracts: it gets the map every round.
type mapRecorder struct{ maps []string }

func (m *mapRecorder) OnContracts(_ int, cs map[string]*contract.PiecewiseLinear) {
	m.maps = append(m.maps, renderContracts(cs))
}
func (m *mapRecorder) OnRoundEnd(engine.Round) error { return nil }

// askingRecorder is a mapRecorder that wants the map only in the rounds
// ask lists (none when ask is nil).
type askingRecorder struct {
	mapRecorder
	ask map[int]bool
}

func (a *askingRecorder) WantsContracts(r int) bool { return a.ask[r] }

// TestContractsOptOutGetsNilMap pins the opt-out on both policy routes:
// when every observer answers false — here one beside a Ledger and
// telemetry, which opt out too — each round hands observers a nil map,
// and the engine keeps no per-ID map at all.
func TestContractsOptOutGetsNilMap(t *testing.T) {
	const rounds = 4
	for _, viewPolicy := range []bool{true, false} {
		var pol engine.Policy = &designPolicy{}
		if viewPolicy {
			pol = &viewDesignPolicy{}
		}
		rec := &askingRecorder{}
		led := &engine.Ledger{}
		eng, err := engine.New(archetypePopulation(t, 30), engine.Config{
			Policy:    pol,
			Rounds:    1,
			Cache:     engine.NewCache(),
			Memo:      engine.NewRespondMemo(),
			Observers: []engine.Observer{rec, led, engine.TelemetryObserver(telemetry.NewRegistry())},
		})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			if err := eng.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
			if eng.HoldsContractMap() {
				t.Errorf("viewPolicy=%v round %d: the engine keeps a contract map nobody asked for", viewPolicy, r)
			}
		}
		for r, m := range rec.maps {
			if m != "<no map>" {
				t.Errorf("viewPolicy=%v round %d: an observer that opted out got a map", viewPolicy, r)
			}
		}
		if len(rec.maps) != rounds || len(led.Rounds) != rounds {
			t.Fatalf("viewPolicy=%v: %d OnContracts calls, %d rounds ledgered, want %d", viewPolicy, len(rec.maps), len(led.Rounds), rounds)
		}
	}
}

// TestContractsAskedAfterSkippedRounds pins the rebuild: on a stepwise
// schedule (optInDrift) and random ones (joins, leaves, rejoins, touched
// and patched slots, Bumps),
// an observer that asks for the map in a few rounds gets, in exactly
// those rounds, the map an observer without WantsContracts gets — which
// must equal, round by round, the map the naive reference round hands
// its observers — and nil in the others. Asked rounds come alone and in
// runs, so a rebuild after a dropped map and the incremental update that
// follows it are both checked.
func TestContractsAskedAfterSkippedRounds(t *testing.T) {
	const (
		n      = 90
		rounds = 12
	)
	type schedule struct {
		name  string
		drift func() func(int, *engine.Population)
		ask   map[int]bool
	}
	schedules := []schedule{
		// Each asked round follows skipped rounds that patched a slot,
		// joined or left — changes a map kept from an earlier asked round
		// would miss.
		{"stepwise", func() func(int, *engine.Population) { return optInDrift(t) },
			map[int]bool{0: true, 2: true, 5: true, 6: true}},
	}
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		schedules = append(schedules, schedule{fmt.Sprintf("random-%d", seed),
			func() func(int, *engine.Population) { return randomDriftSchedule(t, seed) },
			map[int]bool{3: true, 4: true, 5: true, 8: true, 11: true}})
	}
	for _, sc := range schedules {
		ask := sc.ask
		ref := &mapRecorder{}
		referenceLedger(t, archetypePopulation(t, n), engine.Config{
			Policy:    &designPolicy{},
			Rounds:    rounds,
			Drift:     sc.drift(),
			Observers: []engine.Observer{ref},
		})
		for _, memo := range []bool{true, false} {
			name := fmt.Sprintf("%s/memo=%v", sc.name, memo)
			cfg := func(obs ...engine.Observer) engine.Config {
				c := engine.Config{
					Policy:    &viewDesignPolicy{},
					Rounds:    rounds,
					Drift:     sc.drift(),
					Cache:     engine.NewCache(),
					Observers: obs,
				}
				if memo {
					c.Memo = engine.NewRespondMemo()
				}
				return c
			}
			always := &mapRecorder{}
			checkedLedger(t, archetypePopulation(t, n), cfg(always))
			if !reflect.DeepEqual(always.maps, ref.maps) {
				t.Errorf("%s: an observer without WantsContracts got other maps than the reference's", name)
			}
			some := &askingRecorder{ask: ask}
			checkedLedger(t, archetypePopulation(t, n), cfg(some))
			if len(some.maps) != rounds {
				t.Fatalf("%s: %d OnContracts calls, want %d", name, len(some.maps), rounds)
			}
			for r, m := range some.maps {
				want := "<no map>"
				if ask[r] {
					want = always.maps[r]
				}
				if m != want {
					t.Errorf("%s round %d (asked %v): map differs from an always-asking engine's:\n got %s\nwant %s", name, r, ask[r], m, want)
				}
			}
		}
	}
}

// optInDrift is a declared drift schedule in which every kind of change
// the per-ID map must follow lands in its own round: a weight touch the
// fingerprint-pure policy patches in place (rounds 1 and 5), a join
// (round 3) and a leave (round 4); the other rounds declare an empty
// scope.
func optInDrift(tb testing.TB) func(int, *engine.Population) {
	tb.Helper()
	return func(round int, pop *engine.Population) {
		switch round {
		case 1, 5:
			id := pop.Agents[3*round].ID
			pop.Weights[id] *= 1.1
			pop.Touch(id)
		case 3:
			// A clone of an archetype under a new ID: its design key is
			// cached, so the join patches too.
			a := *pop.Agents[0]
			a.ID = "j00000"
			pop.Agents = append(pop.Agents, &a)
			pop.Weights[a.ID] = 0.9
			pop.MaliceProb[a.ID] = 0.05
			pop.TouchJoin(a.ID)
		case 4:
			id := pop.Agents[1].ID
			pop.Agents = append(pop.Agents[:1], pop.Agents[2:]...)
			delete(pop.Weights, id)
			delete(pop.MaliceProb, id)
			pop.TouchLeave(id)
		default:
			// Declared, nothing touched: the engine keeps its view, so an
			// asked round here takes the incremental update.
			pop.Touch()
		}
	}
}

// TestContractsMixedObservers pins that Hooks wants the map exactly when
// its Contracts func is set, and that one observer wanting the map is
// enough: every observer of the round gets it, the ones that opted out
// included.
func TestContractsMixedObservers(t *testing.T) {
	if (engine.Hooks{}).WantsContracts(0) {
		t.Error("Hooks without Contracts wants the map")
	}
	out := &askingRecorder{}
	var hooked []string
	hooks := engine.Hooks{Contracts: func(_ int, cs map[string]*contract.PiecewiseLinear) {
		hooked = append(hooked, renderContracts(cs))
	}}
	if !hooks.WantsContracts(0) {
		t.Error("Hooks with Contracts does not want the map")
	}
	if _, err := engine.RunLedger(context.Background(), archetypePopulation(t, 12), engine.Config{
		Policy:    &viewDesignPolicy{},
		Rounds:    3,
		Cache:     engine.NewCache(),
		Observers: []engine.Observer{out, hooks, engine.Hooks{}},
	}); err != nil {
		t.Fatal(err)
	}
	for r, m := range hooked {
		if m == "<no map>" || out.maps[r] != m {
			t.Errorf("round %d: hooks got %q, the opted-out observer %q; want the same map", r, m, out.maps[r])
		}
	}
}
