package engine

import (
	"context"
	"errors"
	"testing"

	"dyncontract/internal/core"
	"dyncontract/internal/worker"
)

// TestCacheSegment covers the segment protocol: local hits without
// touching the shared table's lock path, cross-segment dedup through the
// parent, stats on the parent's counters, and lazy clearing after
// Invalidate.
func TestCacheSegment(t *testing.T) {
	c := NewCache()
	segA, segB := c.Segment(), c.Segment()
	key := DesignKey{Class: worker.Honest, Beta: 1}
	menu := &core.Menu{}

	m, f, own := segA.claim(key)
	if m != nil || !own {
		t.Fatal("empty segment did not hand out the build")
	}
	segA.land(key, f, menu)
	if got, _, _ := segB.claim(key); got != menu {
		t.Fatal("sibling segment missed a published entry")
	}
	if got, _, _ := segA.claim(key); got != menu {
		t.Fatal("local entry missed")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("parent stats = %+v, want 2 hits / 1 miss", st)
	}
	if st.Entries != 1 {
		t.Errorf("parent entries = %d, want 1", st.Entries)
	}

	c.Invalidate()
	for _, seg := range []*CacheSegment{segA, segB} {
		m, f, own := seg.claim(key)
		if m != nil || !own {
			t.Fatal("segment served a stale entry after Invalidate")
		}
		seg.land(key, f, nil) // a failed build publishes nothing
	}
}

// TestCacheClaimFlights pins the build-once protocol: a second claim of a
// key in flight awaits the owner's build instead of building; a failed
// build releases its waiters to claim the key afresh; a cancelled wait
// returns the context's error.
func TestCacheClaimFlights(t *testing.T) {
	ctx := context.Background()
	c := NewCache()
	key := DesignKey{Class: worker.Honest, Beta: 1}

	_, owner, own := c.claim(key)
	_, waiter, own2 := c.claim(key)
	if !own || own2 || waiter != owner {
		t.Fatalf("claims: own=%v own2=%v same flight=%v; want the second to await the first", own, own2, waiter == owner)
	}
	go c.land(key, owner, nil)
	if m, err := c.await(ctx, key, waiter); m != nil || err != nil {
		t.Fatalf("await of a failed build = %v, %v; want nil, nil", m, err)
	}

	_, retry, own := c.claim(key)
	if !own {
		t.Fatal("a failed flight left the key claimed")
	}
	_, waiter, _ = c.claim(key)
	menu := &core.Menu{}
	go c.land(key, retry, menu)
	if m, err := c.await(ctx, key, waiter); m != menu || err != nil {
		t.Fatalf("await = %v, %v; want the built menu", m, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 builds, 1 awaited hit, 1 menu", st)
	}

	other := DesignKey{Class: worker.Honest, Beta: 2}
	_, f, _ := c.claim(other)
	_, w, _ := c.claim(other)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.await(cancelled, other, w); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled await err = %v, want context.Canceled", err)
	}
	c.land(other, f, nil)

}

func TestCacheZeroValueAndInvalidate(t *testing.T) {
	var c Cache // zero value must be usable
	key := DesignKey{Class: worker.Honest, Beta: 1}
	if _, ok := c.peek(key); ok {
		t.Fatal("empty cache held a menu")
	}
	menu := &core.Menu{}
	_, f, own := c.claim(key)
	if !own {
		t.Fatal("empty cache did not hand out the build")
	}
	c.land(key, f, menu)
	if got, _, _ := c.claim(key); got != menu {
		t.Fatal("claim/land roundtrip failed")
	}

	before := c.Stats()
	if before.Hits != 1 || before.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", before)
	}
	c.Invalidate()
	after := c.Stats()
	if after.Entries != 0 {
		t.Errorf("entries after Invalidate = %d, want 0", after.Entries)
	}
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Error("Invalidate reset the counters; they must be preserved")
	}
	if _, ok := c.peek(key); ok {
		t.Error("invalidated cache still serves menus")
	}
}

func TestCacheMaxEntriesFlush(t *testing.T) {
	c := Cache{MaxEntries: 2}
	menu := &core.Menu{}
	put := func(key DesignKey) {
		_, f, _ := c.claim(key)
		c.land(key, f, menu)
	}
	put(DesignKey{Beta: 1})
	put(DesignKey{Beta: 2})
	if got := c.Stats().Entries; got != 2 {
		t.Fatalf("entries = %d, want 2", got)
	}
	put(DesignKey{Beta: 3}) // crossing the cap flushes first
	if got := c.Stats().Entries; got != 1 {
		t.Errorf("entries after overflow = %d, want 1 (flush-then-insert)", got)
	}
	if _, ok := c.peek(DesignKey{Beta: 3}); !ok {
		t.Error("the entry that triggered the flush was lost")
	}
}
