package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dyncontract/internal/contract"
	"dyncontract/internal/telemetry"
	"dyncontract/internal/worker"
)

// The respond stage is the lower level of the Stackelberg game: every
// agent computes its exact best response (Lemma 4.1 interval case
// analysis) to the contract it was offered. The paper's decomposition
// argument (§IV-B) applies here exactly as it does to contract design —
// a best response depends only on the agent's behavioural parameters,
// the partition, and the contract, so agents sharing a design key and a
// contract share one BestResponse call, whatever their weights. This file
// holds the cross-round RespondMemo, its shard-local segments, and the
// bounded fan-out the per-shard stages run on (shard.go holds the stage
// itself).

// respondKey identifies a best-response problem up to equality of its
// inputs: the agent's design key (class, ψ, β, ω, reservation, partition
// — a superset of what BestResponse reads, so equal keys imply equal
// responses; the requester's μ and w are not read and not keyed) and the
// contract's identity. Keying on the contract pointer is sound because
// the memo retains the key: a held pointer can never be recycled for a
// different contract. The policies that benefit (Designer-backed ones
// with a Cache) serve one contract pointer per (menu, winning k), so
// agents of one design key whose weights pick the same k share one
// response; a policy that re-allocates equal contracts every round simply
// misses every round — correct, just not accelerated.
type respondKey struct {
	key DesignKey
	c   *contract.PiecewiseLinear
}

// RespondStats is a snapshot of a memo's counters.
type RespondStats struct {
	// Hits counts distinct (design key, contract) lookups served from
	// the memo — each one a BestResponse call that did not happen.
	Hits uint64
	// Misses counts lookups that required a fresh BestResponse call.
	Misses uint64
	// Entries is the number of distinct responses currently held.
	Entries int
}

// defaultMemoCap bounds the entry map, mirroring the design cache:
// parameter drift mints a new key per drifted agent and contract, so a
// long run with churn would otherwise grow without bound. Crossing the
// cap flushes the whole map; counters are preserved.
const defaultMemoCap = 1 << 16

// RespondMemo is a deduplicating best-response memo keyed by (design key,
// contract). It is safe for concurrent use; the zero value is ready to
// use.
//
// Correctness is automatic, by the same argument as Cache: every input
// BestResponse reads is part of the key, so a drift that mutates an
// agent's ψ, β, ω, or reservation mints a new design key and the stale
// entry is simply never looked up again. Invalidate exists for memory
// control and cold-start comparisons.
type RespondMemo struct {
	// MaxEntries caps the map; 0 means the package default (65536).
	MaxEntries int

	mu      sync.RWMutex
	entries map[respondKey]worker.Response
	// byKey is the secondary index for targeted invalidation: every
	// contract a design key was memoized against, so RemoveKeys can drop
	// all of a dead key's (key, contract) entries without scanning the
	// map. Maintained by Put, discarded with the entries on Invalidate
	// and cap flushes.
	byKey map[DesignKey][]*contract.PiecewiseLinear
	// hits/misses are telemetry counters so a registry can adopt them
	// directly (ExportTo); Stats() stays a thin view over the same
	// atomics, with or without a registry attached.
	hits   telemetry.Counter
	misses telemetry.Counter
	// size mirrors len(entries) into the registry; nil (a no-op gauge)
	// until ExportTo attaches one. Guarded by mu.
	size *telemetry.Gauge
	// gen counts whole-map drops (Invalidate and cap flushes), clearing
	// segments lazily — see Cache.gen for the protocol.
	gen atomic.Uint64
}

// NewRespondMemo returns an empty memo with the default size cap.
func NewRespondMemo() *RespondMemo { return &RespondMemo{} }

// Get looks up a best response, counting a hit or a miss.
func (m *RespondMemo) Get(key DesignKey, c *contract.PiecewiseLinear) (worker.Response, bool) {
	m.mu.RLock()
	resp, ok := m.entries[respondKey{key: key, c: c}]
	m.mu.RUnlock()
	if ok {
		m.hits.Inc()
		return resp, true
	}
	m.misses.Inc()
	return worker.Response{}, false
}

// Put stores a best response under its key, flushing the map first if it
// would exceed the cap.
func (m *RespondMemo) Put(key DesignKey, c *contract.PiecewiseLinear, resp worker.Response) {
	if c == nil {
		return
	}
	max := m.MaxEntries
	if max <= 0 {
		max = defaultMemoCap
	}
	rk := respondKey{key: key, c: c}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[respondKey]worker.Response)
	} else if len(m.entries) >= max {
		m.entries = make(map[respondKey]worker.Response)
		m.byKey = nil
		m.gen.Add(1)
	}
	if _, dup := m.entries[rk]; !dup {
		if m.byKey == nil {
			m.byKey = make(map[DesignKey][]*contract.PiecewiseLinear)
		}
		m.byKey[key] = append(m.byKey[key], c)
	}
	m.entries[rk] = resp
	m.size.Set(float64(len(m.entries)))
	m.mu.Unlock()
}

// RemoveKeys drops every memoized response keyed by the named design
// keys, whatever contract they were paired with — the memo-side half of a
// scoped drift's targeted invalidation (see Cache.Remove for the
// refcounting contract). Like Remove, it does not bump the segment
// generation: a lingering segment-local entry is exact by construction —
// the (design key, contract) pair fully determines the response — so the
// removal only bounds the shared table's memory. Counters are preserved.
func (m *RespondMemo) RemoveKeys(keys ...DesignKey) {
	if len(keys) == 0 {
		return
	}
	m.mu.Lock()
	for _, key := range keys {
		for _, c := range m.byKey[key] {
			delete(m.entries, respondKey{key: key, c: c})
		}
		delete(m.byKey, key)
	}
	m.size.Set(float64(len(m.entries)))
	m.mu.Unlock()
}

// Invalidate drops every memoized response. Parameter drift never needs
// this (changed inputs mint new keys); it exists for memory control and
// to force a cold re-respond. Counters are preserved.
func (m *RespondMemo) Invalidate() {
	m.mu.Lock()
	m.entries = nil
	m.byKey = nil
	m.size.Set(0)
	m.gen.Add(1)
	m.mu.Unlock()
}

// Stats returns a snapshot of the hit/miss counters and current size —
// a thin view over the memo's live telemetry counters, the same atomics
// a registry adopts through ExportTo.
func (m *RespondMemo) Stats() RespondStats {
	m.mu.RLock()
	n := len(m.entries)
	m.mu.RUnlock()
	return RespondStats{Hits: m.hits.Value(), Misses: m.misses.Value(), Entries: n}
}

// ExportTo registers the memo's live hit/miss counters in reg under the
// MetricRespond* names and attaches an entries gauge. Engines wire this
// automatically when both Config.Memo and Config.Metrics are set; a nil
// registry is a no-op.
func (m *RespondMemo) ExportTo(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(MetricRespondHits, &m.hits)
	reg.RegisterCounter(MetricRespondMisses, &m.misses)
	size := reg.Gauge(MetricRespondEntries)
	m.mu.Lock()
	m.size = size
	m.size.Set(float64(len(m.entries)))
	m.mu.Unlock()
}

// RespondMemoSegment is a shard-local view over a shared RespondMemo,
// mirroring CacheSegment: a private lock-free map in front of the shared
// read-mostly table, single-owner per shard, hits/misses counted on the
// parent's atomics, cleared lazily when the parent's generation moves.
type RespondMemoSegment struct {
	parent *RespondMemo
	gen    uint64
	local  map[respondKey]worker.Response
}

// Segment returns a new shard-local view of the memo. Each segment is
// single-owner: safe for use from one goroutine at a time, concurrently
// with other segments of the same memo.
func (m *RespondMemo) Segment() *RespondMemoSegment {
	return &RespondMemoSegment{parent: m, gen: m.gen.Load(), local: make(map[respondKey]worker.Response)}
}

// sync drops the local map when the parent has been invalidated or
// flushed since the last access.
func (s *RespondMemoSegment) sync() {
	if g := s.parent.gen.Load(); g != s.gen {
		clear(s.local)
		s.gen = g
	}
}

// store caps the local map by the parent's limit, mirroring its
// flush-when-full policy.
func (s *RespondMemoSegment) store(key respondKey, resp worker.Response) {
	max := s.parent.MaxEntries
	if max <= 0 {
		max = defaultMemoCap
	}
	if len(s.local) >= max {
		clear(s.local)
	}
	s.local[key] = resp
}

// Get looks up a best response — local map first, then the shared table —
// counting one hit or miss on the parent.
func (s *RespondMemoSegment) Get(key DesignKey, c *contract.PiecewiseLinear) (worker.Response, bool) {
	s.sync()
	rk := respondKey{key: key, c: c}
	if resp, ok := s.local[rk]; ok {
		s.parent.hits.Inc()
		return resp, true
	}
	resp, ok := s.parent.Get(key, c)
	if ok {
		s.store(rk, resp)
	}
	return resp, ok
}

// Put stores a best response in the segment and publishes it to the
// shared table, where sibling segments will find it.
func (s *RespondMemoSegment) Put(key DesignKey, c *contract.PiecewiseLinear, resp worker.Response) {
	if c == nil {
		return
	}
	s.sync()
	s.store(respondKey{key: key, c: c}, resp)
	s.parent.Put(key, c, resp)
}

// pendResponse is one distinct best-response problem this round that the
// memo could not serve.
type pendResponse struct {
	// slot indexes the round-local responses slice the solved response
	// is written into.
	slot int32
	// i is the shard position of the representative agent: the first
	// agent (in ID order) that produced this key, used for solving and
	// for error attribution. Its design key is the shard's FPs[i].DesignKey.
	i int32
	c *contract.PiecewiseLinear
}

// respondScratch holds one shard's retained respond buffers; after the
// first round of a steady-state run, the stage allocates nothing.
type respondScratch struct {
	keys  map[respondKey]int32 // round-local: key → slot in resps
	resps []worker.Response    // one per distinct key this round
	slots []int32              // per agent: slot in resps, −1 when excluded
	pend  []pendResponse       // distinct keys needing a fresh BestResponse
}

// fillResponse copies a computed best response into an outcome and
// returns the utility it contributes (0 when declined).
func fillResponse(oc *AgentOutcome, resp worker.Response) float64 {
	if resp.Declined {
		oc.Declined = true
		return 0
	}
	oc.Effort = resp.Effort
	oc.Feedback = resp.Feedback
	oc.Compensation = resp.Compensation
	return resp.Utility
}

// fanOut runs fn(i) for i in [0, n) across a pool of at most GOMAXPROCS
// workers, mirroring solver.SolveAllInto: context-aware, first failure
// cancels outstanding work, and every task writes only its own
// pre-assigned state so results are position-deterministic. Error
// selection is deterministic too: the lowest-indexed non-cancellation
// error wins (exactly the error an in-order loop would have returned,
// since equal inputs fail equally), with pure cancellation reported only
// when no task failed on its own.
func (e *Engine) fanOut(ctx context.Context, r, n int, fn func(i int) error) error {
	if cap(e.fanErrs) < n {
		e.fanErrs = make([]error, n)
	}
	errs := e.fanErrs[:n]
	for i := range errs {
		errs[i] = nil
	}
	par := min(runtime.GOMAXPROCS(0), n)

	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	indexes := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indexes {
				if err := fanCtx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if err := fn(i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case indexes <- i:
		case <-fanCtx.Done():
			for j := i; j < n; j++ {
				errs[j] = fanCtx.Err()
			}
			break feed
		}
	}
	close(indexes)
	wg.Wait()

	var cancelErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cancelErr == nil {
				cancelErr = err
			}
			continue
		}
		return err
	}
	if cancelErr != nil {
		return fmt.Errorf("engine: round %d: %w", r, cancelErr)
	}
	return nil
}
