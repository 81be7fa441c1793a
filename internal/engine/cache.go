package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"dyncontract/internal/core"
	"dyncontract/internal/effort"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// DesignKey identifies the worker side of a contract-design problem:
// everything core.BuildMenu reads — the agent's class, ψ, β, ω and
// reservation, and the partition. Two agents with equal keys share one
// design menu (core.Menu), whatever their requester weights.
//
// Size is deliberately absent: the community size never enters the design
// (a community's ψ already aggregates its members' effort), so communities
// of different sizes sharing parameters still share a menu.
type DesignKey struct {
	// Class is the behavioural class (it constrains ω in validation).
	Class worker.Class
	// R2, R1, R0 are the agent's ψ coefficients.
	R2, R1, R0 float64
	// Beta, Omega, Reservation are the agent's utility parameters.
	Beta, Omega, Reservation float64
	// M, Delta describe the effort partition.
	M int
	// Delta is the partition's interval width δ.
	Delta float64
}

// DesignKeyOf computes the worker-side design key of agent a over part.
func DesignKeyOf(a *worker.Agent, part effort.Partition) DesignKey {
	return DesignKey{
		Class:       a.Class,
		R2:          a.Psi.R2,
		R1:          a.Psi.R1,
		R0:          a.Psi.R0,
		Beta:        a.Beta,
		Omega:       a.Omega,
		Reservation: a.Reservation,
		M:           part.M,
		Delta:       part.Delta,
	}
}

// Fingerprint identifies a contract-design problem up to equality of its
// inputs: everything a design reads from the agent and the config —
// the worker-side DesignKey plus the requester's μ and w. Two agents with
// equal fingerprints receive the same designed contract, so populations
// drawn from a handful of archetypes collapse to a handful of picks per
// round.
type Fingerprint struct {
	DesignKey
	// Mu, W are the requester-side weights of the design config.
	Mu, W float64
}

// FingerprintOf computes the design fingerprint of one decomposed
// subproblem.
func FingerprintOf(a *worker.Agent, cfg core.Config) Fingerprint {
	return Fingerprint{DesignKey: DesignKeyOf(a, cfg.Part), Mu: cfg.Mu, W: cfg.W}
}

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	// Hits counts design-key lookups served from the cache — each one a
	// menu solve that did not happen.
	Hits uint64
	// Misses counts lookups that required a fresh menu build.
	Misses uint64
	// Entries is the number of distinct design keys (menus) currently
	// held.
	Entries int
	// Flushes counts whole-map drops on crossing MaxEntries — each one a
	// cold round for every live key that follows.
	Flushes uint64
}

// defaultCacheCap bounds the entry map: parameter drift (ψ, β, ω,
// reservation) mints a new design key per drifted agent, so a long run
// with churn would grow without bound. Crossing the cap flushes the whole
// map (the next round repopulates the live keys) and counts one flush;
// counters are preserved. Weight drift mints no keys.
const defaultCacheCap = 1 << 16

// Cache is a deduplicating cache of design menus keyed by DesignKey. It
// is safe for concurrent use; the zero value is ready to use.
//
// Correctness is automatic: every input core.BuildMenu reads is part of
// the key, so mutating an agent simply misses and rebuilds, and the
// requester's w and μ — which only the O(m) pick reads — are not cached at
// all. Invalidate exists for explicit control over memory and for callers
// that want a cold start (benchmark baselines, A/B comparisons).
type Cache struct {
	// MaxEntries caps the map; 0 means the package default (65536).
	MaxEntries int

	mu      sync.RWMutex
	entries map[DesignKey]*core.Menu
	removed int // deletions from entries since it was last rebuilt; guarded by mu
	hits    atomic.Uint64
	misses  atomic.Uint64
	flushes uint64 // cap flushes; guarded by mu
	// pub is what this cache last added to a registry (see publish).
	pub published
	// flights holds the menu builds in progress, so concurrent designers
	// (design queries beside the round loop, engines sharing the cache)
	// missing the same key build it once. Guarded by mu.
	flights map[DesignKey]*menuFlight
}

// menuFlight is one in-progress menu build. done is made by the first
// caller to await it — most builds have no waiter and skip it — and
// closed by land after menu is written; menu stays nil when the build
// failed or was cancelled. Both fields are written under Cache.mu.
type menuFlight struct {
	done chan struct{}
	menu *core.Menu
}

// NewCache returns an empty cache with the default size cap.
func NewCache() *Cache { return &Cache{} }

// peek looks up a design key's menu without counting.
func (c *Cache) peek(key DesignKey) (*core.Menu, bool) {
	c.mu.RLock()
	m, ok := c.entries[key]
	c.mu.RUnlock()
	return m, ok
}

// putLocked stores a built menu under its design key, flushing the map
// first if it would exceed the cap; nil (a failed build) stores nothing.
// The caller holds c.mu.
func (c *Cache) putLocked(key DesignKey, m *core.Menu) {
	if m == nil {
		return
	}
	max := c.MaxEntries
	if max <= 0 {
		max = defaultCacheCap
	}
	if c.entries == nil {
		c.entries = make(map[DesignKey]*core.Menu)
	} else if len(c.entries) >= max {
		c.entries = make(map[DesignKey]*core.Menu)
		c.removed = 0
		c.flushes++
	}
	c.entries[key] = m
}

// claim is the build-once lookup behind every designer: the key's menu on
// a hit (counted); else, when another caller is already building it, that
// flight to await; else a new flight the caller owns (own = true, counted
// as the miss), which it must land whether or not its build succeeds.
func (c *Cache) claim(key DesignKey) (m *core.Menu, f *menuFlight, own bool) {
	if m, ok := c.peek(key); ok {
		c.hits.Add(1)
		return m, nil, false
	}
	c.mu.Lock()
	if m, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return m, nil, false
	}
	if f := c.flights[key]; f != nil {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		c.mu.Unlock()
		return nil, f, false
	}
	f = &menuFlight{}
	if c.flights == nil {
		c.flights = make(map[DesignKey]*menuFlight)
	}
	c.flights[key] = f
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, f, true
}

// land ends an owned flight: a built menu is stored and handed to every
// waiter; nil (a failed or cancelled build) releases them to claim the
// key afresh.
func (c *Cache) land(key DesignKey, f *menuFlight, m *core.Menu) {
	c.mu.Lock()
	c.putLocked(key, m)
	f.menu = m
	delete(c.flights, key)
	done := f.done
	c.mu.Unlock()
	if done != nil {
		close(done)
	}
}

// await waits for another caller's flight, counting a delivered menu as a
// hit. A nil menu means the flight failed: claim the key again.
func (c *Cache) await(ctx context.Context, f *menuFlight) (*core.Menu, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if f.menu != nil {
		c.hits.Add(1)
	}
	return f.menu, nil
}

// Remove drops exactly the named design keys — the targeted-invalidation
// half of a scoped drift: the engine refcounts design keys across its
// view and removes only those whose last holder drifted away or left, so
// shared menus survive and dead ones are freed. One caveat for shared
// caches: keys minted outside the engine's view (the server's design
// probes) are not refcounted, so a removal can evict an entry such
// callers still want; they rebuild once and repopulate. Counters are
// preserved.
func (c *Cache) Remove(keys ...DesignKey) {
	if len(keys) == 0 {
		return
	}
	c.mu.Lock()
	for _, key := range keys {
		delete(c.entries, key)
	}
	c.removed += len(keys)
	c.entries = compact(c.entries, &c.removed)
	c.mu.Unlock()
}

// compact returns m, or a fresh copy of it once *deleted (deletions since
// m was last rebuilt) exceeds its live size, resetting *deleted. A Go map
// never shrinks, and under key churn its deleted slots are not all
// reused: a map whose live size is flat while each drift mints new keys
// and deletes retired ones keeps growing. Rebuilding once the deletions
// pass the live size keeps the map proportional to what it holds, at O(1)
// amortized per deletion.
func compact[K comparable, V any](m map[K]V, deleted *int) map[K]V {
	if *deleted <= len(m) {
		return m
	}
	*deleted = 0
	out := make(map[K]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Invalidate drops every cached menu. Call it when beliefs shift through
// state the key cannot see (there is none today — ψ and the cost
// parameters are keyed, and weights are picked, never cached) or to force
// a cold redesign. Counters are preserved.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.entries, c.removed = nil, 0
	c.mu.Unlock()
}

// Stats returns a snapshot of this cache's own counters and current
// size.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n, flushes := len(c.entries), c.flushes
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n, Flushes: flushes}
}

// publish adds what the cache counted since its previous publish to reg's
// MetricCache* metrics. Engines call it at every round end and Designers
// at the end of every Design; the baseline lives in the cache, so a
// cache shared by both counts each hit once, and a registry shared by
// many caches sums them. A nil cache or registry is a no-op.
func (c *Cache) publish(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.pub.mu.Lock()
	defer c.pub.mu.Unlock()
	c.pub.add(reg, &cacheMetrics, c.Stats())
}

// retire publishes like publish and then takes the cache's entries back
// out of reg's MetricCacheEntries: Engine.Run calls it when the run
// finishes, so the gauge sums only live caches. A nil cache or registry
// is a no-op.
func (c *Cache) retire(reg *telemetry.Registry) {
	if c == nil || reg == nil {
		return
	}
	c.pub.mu.Lock()
	defer c.pub.mu.Unlock()
	c.pub.retire(reg, &cacheMetrics, c.Stats())
}
