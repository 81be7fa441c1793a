package engine_test

import (
	"context"
	"runtime"
	"testing"

	"dyncontract/internal/engine"
)

// liveHeap returns the heap in use after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestStepHeapPerAgent bounds the heap an engine retains after its first
// steps over a 12k-agent population drawn from 3 design keys, with a
// design cache and a respond memo, so per-agent state that only repeats
// what the design keys already say cannot return unnoticed: a design key
// (72 B) or fingerprint (88 B) per agent, or a refcount map sized to the
// population. What an agent legitimately costs is its slots in the
// ID-sorted view, the outcome buffer, and the indexed columns (weight,
// malice, key id, contract, utility): 173 B measured (with or without
// -race, linux/amd64).
func TestStepHeapPerAgent(t *testing.T) {
	const (
		n     = 12000
		bound = 220 // bytes per agent: headroom, but under 173 + one 72-byte key
	)
	ctx := context.Background()
	pop := archetypePopulation(t, n)
	before := liveHeap()
	eng, err := engine.New(pop, engine.Config{
		Policy: &viewDesignPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := eng.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	perAgent := float64(liveHeap()-before) / n
	runtime.KeepAlive(eng)
	t.Logf("%.1f B per agent", perAgent)
	if perAgent > bound {
		t.Errorf("an engine over %d agents retains %.1f B per agent, want <= %d", n, perAgent, bound)
	}
}

// TestRetiredKeysHeap drifts design parameters every round, so each round
// mints design keys no agent held before and retires the keys their last
// holders drifted away from. The engine evicts a retired key's menu and
// memoized responses, so what it retains must follow the live keys, not
// every key it ever saw: the heap after round 1000 (6,000 keys minted,
// ~120 live) stays within a small bound of the heap after round 20. That
// includes the maps the keys pass through — the cache's entries, the
// memo's entries and byKey index, and the key table's index — which
// deletion alone does not shrink.
func TestRetiredKeysHeap(t *testing.T) {
	const (
		n       = 120
		perStep = 6
		warm    = 20
		rounds  = 1000
		// bound is headroom over the growth measured between rounds 20 and
		// 1000: ~40 kB (linux/amd64, with or without -race), the maps
		// reaching their steady size plus goroutine records. Maps that kept
		// their deleted slots grew ~155 kB by round 1000, and again at
		// every later doubling of the keys minted; a menu and its memoized
		// responses kept per retired key cost tens of MB here.
		bound = 112 << 10
	)
	ctx := context.Background()
	pop := archetypePopulation(t, n)
	eng, err := engine.New(pop, engine.Config{
		Policy: &viewDesignPolicy{},
		Rounds: 1,
		Cache:  engine.NewCache(),
		Memo:   engine.NewRespondMemo(),
	})
	if err != nil {
		t.Fatal(err)
	}
	minted := 0
	var at20 uint64
	for r := 1; r <= rounds; r++ {
		// Each touched agent moves to a β no agent has held: a new key,
		// and its old key dies once its last holder has moved.
		for k := range perStep {
			a := pop.Agents[((r-1)*perStep+k)%n]
			minted++
			a.Beta = 1 + float64(minted)/1024
			pop.Touch(a.ID)
		}
		if err := eng.Step(ctx); err != nil {
			t.Fatal(err)
		}
		if r == warm {
			at20 = liveHeap()
		}
	}
	at200 := liveHeap()
	runtime.KeepAlive(eng)
	t.Logf("heap after round %d: %d B; after round %d: %d B", warm, at20, rounds, at200)
	if at200 > at20+bound {
		t.Errorf("heap grew %d B between rounds %d and %d (%d keys minted), want <= %d",
			at200-at20, warm, rounds, minted, bound)
	}
	if st := eng.CacheStats(); st.Entries > n {
		t.Errorf("cache holds %d menus for %d agents", st.Entries, n)
	}
}
