package engine

import (
	"context"
	"fmt"
	"testing"

	"dyncontract/internal/contract"
	"dyncontract/internal/effort"
	"dyncontract/internal/worker"
)

// stubPolicy pays a flat rate to everyone — the simplest Policy, enough
// to drive the view machinery the key table tests exercise.
type stubPolicy struct{}

func (stubPolicy) Name() string { return "stub" }

func (stubPolicy) Contracts(_ context.Context, pop *Population) (map[string]*contract.PiecewiseLinear, error) {
	c, err := contract.Flat(0, pop.Part.YMax(), 1)
	if err != nil {
		return nil, err
	}
	m := make(map[string]*contract.PiecewiseLinear, len(pop.Agents))
	for _, a := range pop.Agents {
		m[a.ID] = c
	}
	return m, nil
}

// keyPolicy designs the view through a cache-backed ViewDesigner and
// opts into the patch route, as platform.DynamicPolicy does.
type keyPolicy struct{ d Designer }

func (p *keyPolicy) Name() string { return "key" }

func (p *keyPolicy) UseCache(c *Cache) { p.d.Cache = c }

func (p *keyPolicy) Contracts(ctx context.Context, pop *Population) (map[string]*contract.PiecewiseLinear, error) {
	return p.d.Contracts(ctx, pop, pop.Agents)
}

func (p *keyPolicy) ViewContracts(ctx context.Context, pop *Population, v *View, dst []*contract.PiecewiseLinear) (bool, error) {
	return p.d.View().Contracts(ctx, pop, v, dst)
}

func keysPop(t *testing.T, n int) *Population {
	t.Helper()
	part, err := effort.NewPartition(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	psi, err := effort.NewQuadratic(-0.02, 2.1, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	pop := &Population{
		Weights:    make(map[string]float64, n),
		MaliceProb: make(map[string]float64),
		Part:       part,
		Mu:         1,
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("a%05d", i)
		a, err := worker.NewHonest(id, psi, 1+0.01*float64(i%5), part.YMax())
		if err != nil {
			t.Fatal(err)
		}
		pop.Agents = append(pop.Agents, a)
		pop.Weights[id] = 0.8 + 0.05*float64(i%3)
	}
	if err := pop.Validate(); err != nil {
		t.Fatal(err)
	}
	return pop
}

// distinctViewKeys counts the distinct design keys the engine's view
// holds, computed from the agents themselves.
func distinctViewKeys(e *Engine) int {
	seen := make(map[DesignKey]bool)
	for _, a := range e.view.Agents {
		seen[DesignKeyOf(a, e.pop.Part)] = true
	}
	return len(seen)
}

// TestKeyTableEager pins the eager refcounting of the key table: it is
// built right after the full rebuild (no lazy walk left to trigger), and
// every refcount stays equal to a recount of the view
// (Engine.CheckViews) through sparse refreshes, structural splices, and a
// forced full rebuild — with a design cache and respond memo to evict
// from, and without (the table is on either way: the views hold its ids).
func TestKeyTableEager(t *testing.T) {
	for _, caches := range []bool{true, false} {
		name := "no-caches"
		if caches {
			name = "cache+memo"
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			pop := keysPop(t, 24)
			cfg := Config{Policy: &stubPolicy{}, Rounds: 1}
			if caches {
				cfg.Cache, cfg.Memo = NewCache(), NewRespondMemo()
			}
			eng, err := New(pop, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				if err := eng.CheckViews(); err != nil {
					t.Fatalf("%s: %v", stage, err)
				}
				if got, want := len(eng.keys.idx), distinctViewKeys(eng); got != want {
					t.Fatalf("%s: table holds %d design keys, views %d", stage, got, want)
				}
			}

			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			check("after full rebuild")

			// Sparse refresh: weight drift moves no key.
			pop.Weights["a00003"] *= 1.5
			pop.Touch("a00003")
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			check("after sparse refresh")

			// Parameter drift onto an existing key: the shared count rises
			// and the agent's old key loses a holder.
			pop.Agents[7].Beta = pop.Agents[3].Beta
			pop.Touch(pop.Agents[7].ID)
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			check("after sparse dedup refresh")

			// Structural splice: one join with a new key, one leave.
			psi := pop.Agents[0].Psi
			joined, err := worker.NewHonest("zz-join", psi, 1.3, pop.Part.YMax())
			if err != nil {
				t.Fatal(err)
			}
			pop.Agents = append(pop.Agents, joined)
			pop.Weights[joined.ID] = 0.7
			gone := pop.Agents[0]
			pop.Agents = append(pop.Agents[:0], pop.Agents[1:]...)
			delete(pop.Weights, gone.ID)
			pop.TouchJoin(joined.ID)
			pop.TouchLeave(gone.ID)
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			check("after structural splice")

			// A Bump forces the full-rebuild path; the table must be
			// recounted there, not left stale.
			pop.Bump()
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			check("after forced full rebuild")
		})
	}
}

// TestKeyTableRemintInOneRound: the last holder of a design key leaves
// while a joiner with the same key arrives, in one structural round. The
// key dies and is re-minted within the refresh, so it keeps its id, and
// its menu and memo entry survive. In the same round another key's last
// holder leaves and a brand-new key arrives: the dead key is evicted, and
// its id is not reused until the sweep has run — the new key takes a
// fresh id, and only the next round's new key recycles the freed one.
// The subtests set Config.Shards, which the engine ignores, to pin that
// the field changes nothing.
func TestKeyTableRemintInOneRound(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ctx := context.Background()
			pop := keysPop(t, 12)
			// a00010 and a00011 each hold a design key no other agent has.
			solo, doomed := pop.Agents[10], pop.Agents[11]
			solo.Beta, doomed.Beta = 1.21, 1.23
			cache, memo := NewCache(), NewRespondMemo()
			eng, err := New(pop, Config{Policy: &keyPolicy{}, Rounds: 1, Cache: cache, Memo: memo, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			sh := &eng.view
			slot := func(id string) int {
				t.Helper()
				for j, a := range sh.Agents {
					if a.ID == id {
						return j
					}
				}
				t.Fatalf("agent %s not in the view", id)
				return 0
			}
			j := slot(solo.ID)
			soloKey, soloID, soloC := sh.Key(j), sh.Keys[j], eng.contracts[j]
			j = slot(doomed.ID)
			doomedKey, doomedID, doomedC := sh.Key(j), sh.Keys[j], eng.contracts[j]
			if !cache.Holds(soloKey) || !cache.Holds(doomedKey) {
				t.Fatal("design keys not cached after the first round")
			}
			if _, ok := memo.Get(soloKey, soloC); !ok {
				t.Fatal("solo key's response not memoized after the first round")
			}

			// One structural round: solo and doomed leave; a twin of solo
			// (same design key, another ID) and an agent with a brand-new
			// key join.
			twin, err := worker.NewHonest("zz-twin", solo.Psi, solo.Beta, pop.Part.YMax())
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := worker.NewHonest("zz-fresh", solo.Psi, 1.37, pop.Part.YMax())
			if err != nil {
				t.Fatal(err)
			}
			pop.Agents = append(pop.Agents[:10], twin, fresh)
			delete(pop.Weights, solo.ID)
			delete(pop.Weights, doomed.ID)
			pop.Weights[twin.ID], pop.Weights[fresh.ID] = 0.9, 0.9
			pop.TouchLeave(solo.ID, doomed.ID)
			pop.TouchJoin(twin.ID, fresh.ID)
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			if err := eng.CheckViews(); err != nil {
				t.Fatal(err)
			}
			j = slot(twin.ID)
			if sh.Keys[j] != soloID || sh.Key(j) != soloKey {
				t.Errorf("re-minted key: id %d, want %d (still live, never freed)", sh.Keys[j], soloID)
			}
			if !cache.Holds(soloKey) {
				t.Error("re-minted key's menu evicted")
			}
			if _, ok := memo.Get(soloKey, soloC); !ok {
				t.Error("re-minted key's memoized response evicted")
			}
			if cache.Holds(doomedKey) {
				t.Error("dead key's menu survived")
			}
			if _, ok := memo.Get(doomedKey, doomedC); ok {
				t.Error("dead key's memoized response survived")
			}
			j = slot(fresh.ID)
			if sh.Keys[j] == doomedID {
				t.Errorf("new key took id %d of a key that died in the same refresh", doomedID)
			}

			// The next round's new key recycles the freed id.
			pop.Agents[0].Beta = 1.41
			pop.Touch(pop.Agents[0].ID)
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
			if err := eng.CheckViews(); err != nil {
				t.Fatal(err)
			}
			if j = slot(pop.Agents[0].ID); sh.Keys[j] != doomedID {
				t.Errorf("new key took id %d, want the freed id %d", sh.Keys[j], doomedID)
			}
		})
	}
}

// TestKeyTableBoundedUnderChurn: rounds of churn that retire design keys
// — leavers holding unique keys, joiners and parameter drifts minting new
// ones — leave the table's live size equal to the distinct keys in the
// views, and its id space bounded by the keys live at once, not by the
// keys ever minted.
func TestKeyTableBoundedUnderChurn(t *testing.T) {
	ctx := context.Background()
	pop := keysPop(t, 40)
	eng, err := New(pop, Config{Policy: &keyPolicy{}, Rounds: 1, Cache: NewCache(), Memo: NewRespondMemo()})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Step(ctx); err != nil {
		t.Fatal(err)
	}
	psi := pop.Agents[0].Psi
	const rounds = 30
	next, peak := 0, distinctViewKeys(eng)
	for r := 0; r < rounds; r++ {
		// Two agents leave and two join with keys never seen before; one
		// survivor drifts onto a new key.
		for range 2 {
			gone := pop.Agents[0]
			pop.Agents = pop.Agents[1:]
			delete(pop.Weights, gone.ID)
			pop.TouchLeave(gone.ID)

			next++
			a, err := worker.NewHonest(fmt.Sprintf("z%05d", next), psi, 2+0.001*float64(next), pop.Part.YMax())
			if err != nil {
				t.Fatal(err)
			}
			pop.Agents = append(pop.Agents, a)
			pop.Weights[a.ID] = 0.8
			pop.TouchJoin(a.ID)
		}
		next++
		a := pop.Agents[len(pop.Agents)/2]
		a.Beta = 2 + 0.001*float64(next)
		pop.Touch(a.ID)
		if err := eng.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if err := eng.CheckViews(); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		live := distinctViewKeys(eng)
		if got := len(eng.keys.idx); got != live {
			t.Fatalf("round %d: table holds %d design keys, views %d", r, got, live)
		}
		peak = max(peak, live)
	}
	// Each round mints 3 keys before its sweep frees the dead ones.
	if got := len(eng.keys.keys); got > peak+3 {
		t.Errorf("key ids span %d after minting %d keys; live keys peaked at %d", got, next, peak)
	}
}
