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
// holds the cross-round RespondMemo and the bounded fan-out the respond
// stage solves its misses on (shard.go holds the stage itself).

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
	// Flushes counts whole-map drops on crossing MaxEntries.
	Flushes uint64
}

// defaultMemoCap bounds the entry map, mirroring the design cache:
// parameter drift mints a new key per drifted agent and contract, so a
// long run with churn would otherwise grow without bound. Crossing the
// cap flushes the whole map and counts one flush; counters are preserved.
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
	// removed counts deletions from entries, removedKeys from byKey, since
	// each map was last rebuilt (see compact).
	removed, removedKeys int
	hits                 atomic.Uint64
	misses               atomic.Uint64
	flushes              uint64 // cap flushes; guarded by mu
	// pub is what this memo last added to a registry (see publish).
	pub published
}

// NewRespondMemo returns an empty memo with the default size cap.
func NewRespondMemo() *RespondMemo { return &RespondMemo{} }

// Get looks up a best response, counting a hit or a miss.
func (m *RespondMemo) Get(key DesignKey, c *contract.PiecewiseLinear) (worker.Response, bool) {
	m.mu.RLock()
	resp, ok := m.entries[respondKey{key: key, c: c}]
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return resp, true
	}
	m.misses.Add(1)
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
		m.removed, m.removedKeys = 0, 0
		m.flushes++
	}
	if _, dup := m.entries[rk]; !dup {
		if m.byKey == nil {
			m.byKey = make(map[DesignKey][]*contract.PiecewiseLinear)
		}
		m.byKey[key] = append(m.byKey[key], c)
	}
	m.entries[rk] = resp
	m.mu.Unlock()
}

// RemoveKeys drops every memoized response keyed by the named design
// keys, whatever contract they were paired with — the memo-side half of a
// scoped drift's targeted invalidation (see Cache.Remove for the
// refcounting contract). Counters are preserved.
func (m *RespondMemo) RemoveKeys(keys ...DesignKey) {
	if len(keys) == 0 {
		return
	}
	m.mu.Lock()
	for _, key := range keys {
		cs, ok := m.byKey[key]
		if !ok {
			continue
		}
		for _, c := range cs {
			delete(m.entries, respondKey{key: key, c: c})
		}
		delete(m.byKey, key)
		m.removed += len(cs)
		m.removedKeys++
	}
	m.entries = compact(m.entries, &m.removed)
	m.byKey = compact(m.byKey, &m.removedKeys)
	m.mu.Unlock()
}

// Invalidate drops every memoized response. Parameter drift never needs
// this (changed inputs mint new keys); it exists for memory control and
// to force a cold re-respond. Counters are preserved.
func (m *RespondMemo) Invalidate() {
	m.mu.Lock()
	m.entries, m.byKey = nil, nil
	m.removed, m.removedKeys = 0, 0
	m.mu.Unlock()
}

// Stats returns a snapshot of this memo's own counters and current size.
func (m *RespondMemo) Stats() RespondStats {
	m.mu.RLock()
	n, flushes := len(m.entries), m.flushes
	m.mu.RUnlock()
	return RespondStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: n, Flushes: flushes}
}

// publish adds what the memo counted since its previous publish to reg's
// MetricRespond* metrics, like Cache.publish.
func (m *RespondMemo) publish(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	m.pub.mu.Lock()
	defer m.pub.mu.Unlock()
	m.pub.add(reg, &respondMetrics, CacheStats(m.Stats()))
}

// retire publishes like publish and then takes the memo's entries back
// out of reg's MetricRespondEntries, like Cache.retire.
func (m *RespondMemo) retire(reg *telemetry.Registry) {
	if m == nil || reg == nil {
		return
	}
	m.pub.mu.Lock()
	defer m.pub.mu.Unlock()
	m.pub.retire(reg, &respondMetrics, CacheStats(m.Stats()))
}

// pendResponse is one distinct best-response problem this round that the
// memo could not serve.
type pendResponse struct {
	// slot indexes the round-local responses slice the solved response
	// is written into.
	slot int32
	// i is the view position of the representative agent: the first
	// agent (in ID order) that produced this key, used for solving and
	// for error attribution. Its design key is the view's Key(i).
	i int32
	c *contract.PiecewiseLinear
}

// slotKey is a respondKey with its design key as the engine's key id:
// the round-local dedup key of the respond loop.
type slotKey struct {
	id int32
	c  *contract.PiecewiseLinear
}

// respondScratch holds the engine's retained respond buffers; after the
// first round of a steady-state run, the stage allocates nothing.
type respondScratch struct {
	keys  map[slotKey]int32 // round-local: key → slot in resps
	resps []worker.Response // one per distinct key this round
	slots []int32           // per agent: slot in resps, −1 when excluded
	pend  []pendResponse    // distinct keys needing a fresh BestResponse
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
