package engine_test

import (
	"context"
	"testing"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/engine"
	"dyncontract/internal/worker"
)

// TestCacheDedupAcrossRounds is the acceptance check for the design cache:
// on a population drawn from three archetypes, a cold engine round performs
// exactly as many core.Design calls as there are distinct fingerprints
// (three — the Designer only solves on a cache miss, so Misses counts
// Design calls), and warm rounds perform zero.
func TestCacheDedupAcrossRounds(t *testing.T) {
	pop := archetypePopulation(t, 30)
	cache := engine.NewCache()
	ctx := context.Background()

	eng, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(ctx); err != nil {
		t.Fatal(err)
	}
	cold := eng.CacheStats()
	if cold.Misses != 3 {
		t.Errorf("cold round Design calls (misses) = %d, want 3 (= distinct fingerprints)", cold.Misses)
	}
	if cold.Hits != 0 {
		t.Errorf("cold round hits = %d, want 0", cold.Hits)
	}
	if cold.Entries != 3 {
		t.Errorf("entries after cold round = %d, want 3", cold.Entries)
	}

	// Two warm rounds on the same cache: every distinct fingerprint hits,
	// nothing is redesigned.
	eng2, err := engine.New(pop, engine.Config{Policy: &designPolicy{}, Rounds: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Run(ctx); err != nil {
		t.Fatal(err)
	}
	warm := cache.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm rounds added %d Design calls, want 0", warm.Misses-cold.Misses)
	}
	if want := uint64(2 * 3); warm.Hits != want {
		t.Errorf("warm hits = %d, want %d (distinct fingerprints × rounds)", warm.Hits, want)
	}
}

// TestShardDesignerCountsEachDesignOnce pins CacheStats on the ShardPolicy
// design route: every distinct fingerprint counts exactly once per round,
// as one hit or one miss. A warm round validates its plan and counts three
// hits; a round after Invalidate fails that validation and counts three
// misses — one per Design call — not a fourth for the failed validation.
func TestShardDesignerCountsEachDesignOnce(t *testing.T) {
	cache := engine.NewCache()
	eng, err := engine.New(archetypePopulation(t, 30), engine.Config{
		Policy: &shardDesignPolicy{},
		Rounds: 1,
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	round := func(name string, wantHits, wantMisses uint64) {
		t.Helper()
		before := cache.Stats()
		if err := eng.Run(ctx); err != nil {
			t.Fatal(err)
		}
		after := cache.Stats()
		if h, m := after.Hits-before.Hits, after.Misses-before.Misses; h != wantHits || m != wantMisses {
			t.Errorf("%s round: %d hits / %d misses, want %d / %d", name, h, m, wantHits, wantMisses)
		}
	}
	round("cold", 0, 3)
	round("warm", 3, 0)
	cache.Invalidate()
	round("invalidated", 0, 3)
	round("rewarmed", 3, 0)
}

// TestWithinRoundDedup pins the unconditional round-level sharing: agents
// with equal fingerprints receive the same designed contract (pointer
// equality — one core.Design call served them all), even with no cache.
func TestWithinRoundDedup(t *testing.T) {
	pop := archetypePopulation(t, 30)
	pol := &designPolicy{}
	contracts, err := pol.Contracts(context.Background(), pop)
	if err != nil {
		t.Fatal(err)
	}
	if len(contracts) != 30 {
		t.Fatalf("contracts = %d, want 30", len(contracts))
	}
	distinct := make(map[interface{}]bool)
	for _, c := range contracts {
		distinct[c] = true
	}
	if len(distinct) != 3 {
		t.Errorf("distinct contract objects = %d, want 3 (one per archetype)", len(distinct))
	}
}

func TestFingerprintOf(t *testing.T) {
	psi, err := effort.NewQuadratic(-0.02, 2, 1, 40)
	if err != nil {
		t.Fatal(err)
	}
	part, err := effort.NewPartition(8, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Part: part, Mu: 1, W: 1}
	a1, err := worker.NewHonest("a1", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := worker.NewHonest("a2", psi, 1, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	if engine.FingerprintOf(a1, cfg) != engine.FingerprintOf(a2, cfg) {
		t.Error("identical design problems produced different fingerprints (ID must not enter the key)")
	}
	heavier := cfg
	heavier.W = 2
	if engine.FingerprintOf(a1, cfg) == engine.FingerprintOf(a1, heavier) {
		t.Error("weight change did not change the fingerprint")
	}
	comm3, err := worker.NewCommunity("c3", psi, 1, 0.5, 3, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	comm9, err := worker.NewCommunity("c9", psi, 1, 0.5, 9, part.YMax())
	if err != nil {
		t.Fatal(err)
	}
	if engine.FingerprintOf(comm3, cfg) != engine.FingerprintOf(comm9, cfg) {
		t.Error("community size entered the fingerprint (the design never reads it)")
	}
}
