package engine_test

import (
	"context"
	"runtime"
	"testing"

	"dyncontract/internal/engine"
)

// TestStepHeapPerAgent bounds the heap an engine retains after its first
// steps over a 12k-agent population drawn from 3 design keys, with a
// design cache and a respond memo, so per-agent state that only repeats
// what the design keys already say cannot return unnoticed: a design key
// (72 B) or fingerprint (88 B) per agent, or a refcount map sized to the
// population. What an agent legitimately costs is its slots in the
// ID-sorted view, the outcome buffer, and the shard views (agent, view
// index, weight, malice, key id, contract, utility): 177 B measured
// (with or without -race, linux/amd64).
func TestStepHeapPerAgent(t *testing.T) {
	const (
		n     = 12000
		bound = 220 // bytes per agent: headroom, but under 177 + one 72-byte key
	)
	ctx := context.Background()
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, shards := range []int{1, 4} {
		pop := archetypePopulation(t, n)
		before := heap()
		eng, err := engine.New(pop, engine.Config{
			Policy: &shardDesignPolicy{},
			Rounds: 1,
			Cache:  engine.NewCache(),
			Memo:   engine.NewRespondMemo(),
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if err := eng.Step(ctx); err != nil {
				t.Fatal(err)
			}
		}
		perAgent := float64(heap()-before) / n
		runtime.KeepAlive(eng)
		if perAgent > bound {
			t.Errorf("shards=%d: an engine over %d agents retains %.1f B per agent, want <= %d", shards, n, perAgent, bound)
		}
	}
}
