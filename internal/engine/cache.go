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
// inputs: everything core.Design reads from the agent and the config —
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
}

// defaultCacheCap bounds the entry map: parameter drift (ψ, β, ω,
// reservation) mints a new design key per drifted agent, so a long run
// with churn would grow without bound. Crossing the cap flushes the whole
// map (the next round repopulates the live keys); counters are preserved.
// Weight drift mints no keys.
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
	// hits/misses are telemetry counters so a registry can adopt them
	// directly (ExportTo); Stats() stays a thin view over the same
	// atomics, with or without a registry attached.
	hits   telemetry.Counter
	misses telemetry.Counter
	// size mirrors len(entries) into the registry; nil (a no-op gauge)
	// until ExportTo attaches one. Guarded by mu.
	size *telemetry.Gauge
	// gen counts whole-map drops (Invalidate and cap flushes). Segments
	// compare it against their own snapshot to clear their local maps
	// lazily, so an Invalidate on the shared cache reaches every segment
	// without the cache knowing who they are.
	gen atomic.Uint64
	// flights holds the menu builds in progress, so concurrent designers
	// (sibling shards on a cold round, design batches beside the round
	// loop) missing the same key build it once. Guarded by mu.
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
		c.gen.Add(1)
	}
	c.entries[key] = m
	c.size.Set(float64(len(c.entries)))
}

// claim is the build-once lookup behind every designer: the key's menu on
// a hit (counted); else, when another caller is already building it, that
// flight to await; else a new flight the caller owns (own = true, counted
// as the miss), which it must land whether or not its build succeeds.
func (c *Cache) claim(key DesignKey) (m *core.Menu, f *menuFlight, own bool) {
	if m, ok := c.peek(key); ok {
		c.hits.Inc()
		return m, nil, false
	}
	c.mu.Lock()
	if m, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.hits.Inc()
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
	c.misses.Inc()
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
func (c *Cache) await(ctx context.Context, _ DesignKey, f *menuFlight) (*core.Menu, error) {
	select {
	case <-f.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if f.menu != nil {
		c.hits.Inc()
	}
	return f.menu, nil
}

// Remove drops exactly the named design keys from the shared table — the
// targeted-invalidation half of a scoped drift: the engine refcounts
// design keys across its shard views and removes only those whose last
// holder drifted away or left, so shared menus survive. Remove
// deliberately does not bump the segment generation: a removed key can
// linger in a segment's local map, but a key fully determines its menu,
// so serving the retained menu stays exact — the removal is about
// bounding memory, not correctness. One caveat for shared caches: keys
// minted outside the engine's views (the server's design probes) are not
// refcounted, so a removal can evict an entry such callers still want;
// they rebuild once and repopulate. Counters are preserved.
func (c *Cache) Remove(keys ...DesignKey) {
	if len(keys) == 0 {
		return
	}
	c.mu.Lock()
	for _, key := range keys {
		delete(c.entries, key)
	}
	c.size.Set(float64(len(c.entries)))
	c.mu.Unlock()
}

// Invalidate drops every cached menu. Call it when beliefs shift through
// state the key cannot see (there is none today — ψ and the cost
// parameters are keyed, and weights are picked, never cached) or to force
// a cold redesign. Counters are preserved.
func (c *Cache) Invalidate() {
	c.mu.Lock()
	c.entries = nil
	c.size.Set(0)
	c.gen.Add(1)
	c.mu.Unlock()
}

// Stats returns a snapshot of the hit/miss counters and current size. It
// is a thin view over the cache's live telemetry counters — the same
// atomics a registry adopts through ExportTo — so printed stats and
// scraped metrics can never disagree.
func (c *Cache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{Hits: c.hits.Value(), Misses: c.misses.Value(), Entries: n}
}

// ExportTo registers the cache's live hit/miss counters in reg under the
// MetricCache* names and attaches an entries gauge that tracks the map
// size from then on. Engines wire this automatically when both
// Config.Cache and Config.Metrics are set. Exporting a second cache to
// the same registry re-points the registered names at the newer cache
// (telemetry's replacement semantics); a nil registry is a no-op.
func (c *Cache) ExportTo(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(MetricCacheHits, &c.hits)
	reg.RegisterCounter(MetricCacheMisses, &c.misses)
	size := reg.Gauge(MetricCacheEntries)
	c.mu.Lock()
	c.size = size
	c.size.Set(float64(len(c.entries)))
	c.mu.Unlock()
}

// CacheSegment is a shard-local view over a shared Cache: reads consult a
// private map first — lock-free, since exactly one goroutine uses a
// segment at a time — and fall back to (and repopulate from) the shared
// read-mostly table, so distinct shards holding the same archetype dedup
// through the parent while their warm rounds never touch its lock. Writes
// publish to both layers. Hits and misses count on the parent's atomic
// counters, so Stats/ExportTo aggregate across every segment for free.
//
// A segment never outlives its cache's contents: Invalidate (or a cap
// flush) bumps the parent's generation, and the segment clears its local
// map on its next access.
type CacheSegment struct {
	parent *Cache
	gen    uint64
	local  map[DesignKey]*core.Menu
}

// Segment returns a new shard-local view of the cache. Each segment is
// single-owner: safe for use from one goroutine at a time, concurrently
// with other segments of the same cache.
func (c *Cache) Segment() *CacheSegment {
	return &CacheSegment{parent: c, gen: c.gen.Load(), local: make(map[DesignKey]*core.Menu)}
}

// sync drops the local map when the parent has been invalidated or
// flushed since the last access.
func (s *CacheSegment) sync() {
	if g := s.parent.gen.Load(); g != s.gen {
		clear(s.local)
		s.gen = g
	}
}

// store caps the local map by the parent's limit, mirroring its
// flush-when-full policy.
func (s *CacheSegment) store(key DesignKey, m *core.Menu) {
	max := s.parent.MaxEntries
	if max <= 0 {
		max = defaultCacheCap
	}
	if len(s.local) >= max {
		clear(s.local)
	}
	s.local[key] = m
}

// peek looks up a design key — local map first, then the shared table —
// without counting: ShardDesigner's warm validation counts its hits only
// once the whole plan has validated, so a failed validation leaves every
// count to the fill that follows.
func (s *CacheSegment) peek(key DesignKey) (*core.Menu, bool) {
	s.sync()
	if m, ok := s.local[key]; ok {
		return m, true
	}
	m, ok := s.parent.peek(key)
	if ok {
		s.store(key, m)
	}
	return m, ok
}

// claim is Cache.claim behind the segment's local map.
func (s *CacheSegment) claim(key DesignKey) (*core.Menu, *menuFlight, bool) {
	s.sync()
	if m, ok := s.local[key]; ok {
		s.parent.hits.Inc()
		return m, nil, false
	}
	m, f, own := s.parent.claim(key)
	if m != nil {
		s.store(key, m)
	}
	return m, f, own
}

// land is Cache.land, keeping a built menu locally too.
func (s *CacheSegment) land(key DesignKey, f *menuFlight, m *core.Menu) {
	if m != nil {
		s.sync()
		s.store(key, m)
	}
	s.parent.land(key, f, m)
}

// await is Cache.await, keeping a delivered menu locally too.
func (s *CacheSegment) await(ctx context.Context, key DesignKey, f *menuFlight) (*core.Menu, error) {
	m, err := s.parent.await(ctx, key, f)
	if m != nil {
		s.sync()
		s.store(key, m)
	}
	return m, err
}
