package engine

import (
	"sync"
	"sync/atomic"

	"dyncontract/internal/core"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// Fingerprint identifies a contract-design problem up to equality of its
// inputs: everything core.Design reads from the agent and the config. Two
// agents with equal fingerprints receive the same designed contract, so
// populations drawn from a handful of archetypes collapse to a handful of
// core.Design calls per round.
//
// Size is deliberately absent: the community size never enters the design
// (a community's ψ already aggregates its members' effort), so communities
// of different sizes sharing parameters still share a contract.
type Fingerprint struct {
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
	// Mu, W are the requester-side weights of the design config.
	Mu, W float64
}

// FingerprintOf computes the design fingerprint of one decomposed
// subproblem.
func FingerprintOf(a *worker.Agent, cfg core.Config) Fingerprint {
	return Fingerprint{
		Class:       a.Class,
		R2:          a.Psi.R2,
		R1:          a.Psi.R1,
		R0:          a.Psi.R0,
		Beta:        a.Beta,
		Omega:       a.Omega,
		Reservation: a.Reservation,
		M:           cfg.Part.M,
		Delta:       cfg.Part.Delta,
		Mu:          cfg.Mu,
		W:           cfg.W,
	}
}

// CacheStats is a snapshot of a cache's counters.
type CacheStats struct {
	// Hits counts fingerprint lookups served from the cache — each one a
	// core.Design call that did not happen.
	Hits uint64
	// Misses counts lookups that required a fresh core.Design call.
	Misses uint64
	// Entries is the number of distinct fingerprints currently held.
	Entries int
}

// defaultCacheCap bounds the entry map: weight drift mints a new
// fingerprint per (agent, weight) pair, so a long adaptive run would grow
// without bound. Crossing the cap flushes the whole map (the next round
// repopulates the live fingerprints); counters are preserved.
const defaultCacheCap = 1 << 16

// Cache is a deduplicating design cache keyed by Fingerprint. It is safe
// for concurrent use; the zero value is ready to use.
//
// Correctness is automatic: every input core.Design reads is part of the
// key, so mutating an agent or shifting a weight simply misses and
// redesigns. Invalidate exists for explicit control over memory and for
// callers that want a cold start (benchmark baselines, A/B comparisons).
type Cache struct {
	// MaxEntries caps the map; 0 means the package default (65536).
	MaxEntries int

	mu      sync.RWMutex
	entries map[Fingerprint]*core.Result
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
}

// NewCache returns an empty cache with the default size cap.
func NewCache() *Cache { return &Cache{} }

// Get looks up a fingerprint, counting a hit or a miss.
func (c *Cache) Get(fp Fingerprint) (*core.Result, bool) {
	res, ok := c.peek(fp)
	if ok {
		c.hits.Inc()
		return res, true
	}
	c.misses.Inc()
	return nil, false
}

// peek is Get without the counting.
func (c *Cache) peek(fp Fingerprint) (*core.Result, bool) {
	c.mu.RLock()
	res, ok := c.entries[fp]
	c.mu.RUnlock()
	return res, ok
}

// Put stores a design result under its fingerprint, flushing the map first
// if it would exceed the cap.
func (c *Cache) Put(fp Fingerprint, res *core.Result) {
	if res == nil {
		return
	}
	max := c.MaxEntries
	if max <= 0 {
		max = defaultCacheCap
	}
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[Fingerprint]*core.Result)
	} else if len(c.entries) >= max {
		c.entries = make(map[Fingerprint]*core.Result)
		c.gen.Add(1)
	}
	c.entries[fp] = res
	c.size.Set(float64(len(c.entries)))
	c.mu.Unlock()
}

// Remove drops exactly the named fingerprints from the shared table — the
// targeted-invalidation half of a sparse drift: the engine refcounts
// fingerprints across its shard views and removes only those whose last
// holder drifted away, so shared designs survive. Remove deliberately does
// not bump the segment generation: a removed fingerprint can linger in a
// segment's local map, but a fingerprint fully determines its design, so
// serving the retained result stays exact — the removal is about bounding
// memory, not correctness. One caveat for shared caches: fingerprints
// minted outside the engine's views (the server's design probes) are not
// refcounted, so a removal can evict an entry such callers still want;
// they re-solve once and repopulate. Counters are preserved.
func (c *Cache) Remove(fps ...Fingerprint) {
	if len(fps) == 0 {
		return
	}
	c.mu.Lock()
	for _, fp := range fps {
		delete(c.entries, fp)
	}
	c.size.Set(float64(len(c.entries)))
	c.mu.Unlock()
}

// Invalidate drops every cached design. Call it when beliefs shift through
// state the fingerprint cannot see (there is none today — weights, ψ, and
// cost parameters are all keyed) or to force a cold redesign. Counters are
// preserved.
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
	local  map[Fingerprint]*core.Result
}

// Segment returns a new shard-local view of the cache. Each segment is
// single-owner: safe for use from one goroutine at a time, concurrently
// with other segments of the same cache.
func (c *Cache) Segment() *CacheSegment {
	return &CacheSegment{parent: c, gen: c.gen.Load(), local: make(map[Fingerprint]*core.Result)}
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
func (s *CacheSegment) store(fp Fingerprint, res *core.Result) {
	max := s.parent.MaxEntries
	if max <= 0 {
		max = defaultCacheCap
	}
	if len(s.local) >= max {
		clear(s.local)
	}
	s.local[fp] = res
}

// Get looks up a fingerprint — local map first, then the shared table —
// counting one hit or miss on the parent.
func (s *CacheSegment) Get(fp Fingerprint) (*core.Result, bool) {
	res, ok := s.peek(fp)
	if ok {
		s.parent.hits.Inc()
	} else {
		s.parent.misses.Inc()
	}
	return res, ok
}

// peek is Get without the counting: ShardDesigner's warm validation
// counts its hits only once the whole plan has validated, so a failed
// validation leaves every count to the fill that follows.
func (s *CacheSegment) peek(fp Fingerprint) (*core.Result, bool) {
	s.sync()
	if res, ok := s.local[fp]; ok {
		return res, true
	}
	res, ok := s.parent.peek(fp)
	if ok {
		s.store(fp, res)
	}
	return res, ok
}

// Put stores a design result in the segment and publishes it to the
// shared table, where sibling segments will find it.
func (s *CacheSegment) Put(fp Fingerprint, res *core.Result) {
	if res == nil {
		return
	}
	s.sync()
	s.store(fp, res)
	s.parent.Put(fp, res)
}
