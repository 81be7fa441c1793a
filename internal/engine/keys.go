package engine

// keyTable interns the design keys the engine's view holds. By the
// decomposition result (§IV-B) an agent's contract depends only on its
// design key plus μ and its weight, and a platform has few worker types
// and many workers, so the view carries a 4-byte key id per agent
// (Shard.Keys) and the table stores each live distinct key once, with the
// number of view slots holding it. Its size follows the distinct keys,
// never the population.
//
// Refcounts are maintained eagerly at every point a view slot's key is
// written: full rebuilds count through buildView, scoped refreshes and
// splices adjust in place, and nothing walks the view after the fact. A
// key whose count reaches zero is dead — no agent mints it any more — and
// sweep frees it, which is when the engine evicts its menu-cache and
// respond-memo entries. A dead key stays interned under its id until the
// sweep, so a key that dies and is re-minted within one refresh (one
// agent's leave, another's join) revives with its id and is not evicted.
// Weight drift never moves a count.
type keyTable struct {
	keys []DesignKey // by id
	// counts holds each id's live holders: 0 marks a dead id awaiting
	// the sweep, -1 a swept id on the free list.
	counts []int32
	idx    map[DesignKey]int32 // live and dead-unswept keys → id
	swept  int                 // deletions from idx since it was last rebuilt
	free   []int32             // swept ids, reused by ref
	dead   []int32             // ids whose count reached 0 since the last sweep
}

// reset empties the table for a full view rebuild, keeping its buffers.
// Nothing is evicted: the rebuild recounts from scratch.
func (t *keyTable) reset() {
	t.keys, t.counts = t.keys[:0], t.counts[:0]
	t.free, t.dead = t.free[:0], t.dead[:0]
	clear(t.idx)
}

// ref returns key's id, counting one more holder; a key not in the table
// takes a free id or a new one.
func (t *keyTable) ref(key *DesignKey) int32 {
	id, ok := t.idx[*key]
	if !ok {
		if n := len(t.free); n > 0 {
			id, t.free = t.free[n-1], t.free[:n-1]
			t.keys[id], t.counts[id] = *key, 0
		} else {
			id = int32(len(t.keys))
			t.keys = append(t.keys, *key)
			t.counts = append(t.counts, 0)
		}
		if t.idx == nil {
			t.idx = make(map[DesignKey]int32)
		}
		t.idx[*key] = id
	}
	t.counts[id]++
	return id
}

// release drops one holder of id; the last one makes it dead.
func (t *keyTable) release(id int32) {
	if t.counts[id]--; t.counts[id] == 0 {
		t.dead = append(t.dead, id)
	}
}

// sweep frees every id still dead — skipping one re-minted since it died,
// or listed twice (died, revived, died again) — and appends its key to
// dst for eviction.
func (t *keyTable) sweep(dst []DesignKey) []DesignKey {
	for _, id := range t.dead {
		if t.counts[id] != 0 {
			continue
		}
		dst = append(dst, t.keys[id])
		delete(t.idx, t.keys[id])
		t.swept++
		t.counts[id] = -1
		t.free = append(t.free, id)
	}
	t.dead = t.dead[:0]
	t.idx = compact(t.idx, &t.swept)
	return dst
}
