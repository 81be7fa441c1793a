package engine

import "fmt"

// Holds reports whether the cache holds a menu for key, without counting
// a hit or a miss.
func (c *Cache) Holds(key DesignKey) bool {
	_, ok := c.peek(key)
	return ok
}

// CheckViews reports the first broken invariant of the engine's retained
// views: one outcome per view position; in every shard, Global strictly
// increasing and aligned with Agents (agents[Global[j]] == Agents[j]);
// every view agent in exactly one shard, the one ShardOf names; and the
// key table (checkKeys).
func (e *Engine) CheckViews() error {
	if len(e.outs) != len(e.agents) {
		return fmt.Errorf("len(outs) = %d, len(agents) = %d", len(e.outs), len(e.agents))
	}
	if !e.shardsOK {
		return nil
	}
	n, placed := len(e.shards), 0
	for si := range e.shards {
		sh := &e.shards[si].sh
		if len(sh.Global) != len(sh.Agents) {
			return fmt.Errorf("shard %d: %d Global entries for %d agents", si, len(sh.Global), len(sh.Agents))
		}
		for j, g := range sh.Global {
			a := sh.Agents[j]
			switch {
			case j > 0 && g <= sh.Global[j-1]:
				return fmt.Errorf("shard %d: Global[%d] = %d after %d", si, j, g, sh.Global[j-1])
			case g < 0 || int(g) >= len(e.agents):
				return fmt.Errorf("shard %d: Global[%d] = %d outside a view of %d", si, j, g, len(e.agents))
			case e.agents[g] != a:
				return fmt.Errorf("shard %d: agents[Global[%d] = %d] is %s, shard holds %s", si, j, g, e.agents[g].ID, a.ID)
			case ShardOf(a.ID, n) != si:
				return fmt.Errorf("agent %s in shard %d, ShardOf says %d", a.ID, si, ShardOf(a.ID, n))
			}
		}
		placed += len(sh.Agents)
	}
	// Each entry maps one-to-one into the view (distinct within a shard by
	// monotonicity, across shards by ShardOf), so equal counts cover it.
	if placed != len(e.agents) {
		return fmt.Errorf("shards hold %d agents, view has %d", placed, len(e.agents))
	}
	return e.checkKeys()
}

// checkKeys reports the first broken invariant of the key table between
// rounds: every shard's Keys aligned with Agents, each id resolving to
// DesignKeyOf(agent, pop.Part); every refcount equal to a recount over
// the views, with no zero-count (dead, unswept) key left; each live key
// indexed under its own id; and every other id on the free list.
func (e *Engine) checkKeys() error {
	t := &e.keys
	if len(t.counts) != len(t.keys) {
		return fmt.Errorf("key table: %d counts for %d keys", len(t.counts), len(t.keys))
	}
	recount := make([]int32, len(t.keys))
	for si := range e.shards {
		sh := &e.shards[si].sh
		if sh.table != t {
			return fmt.Errorf("shard %d does not index the engine's key table", si)
		}
		if len(sh.Keys) != len(sh.Agents) {
			return fmt.Errorf("shard %d: %d Keys for %d agents", si, len(sh.Keys), len(sh.Agents))
		}
		for j, id := range sh.Keys {
			a := sh.Agents[j]
			if id < 0 || int(id) >= len(t.keys) {
				return fmt.Errorf("shard %d: agent %s holds key id %d outside a table of %d", si, a.ID, id, len(t.keys))
			}
			if t.keys[id] != DesignKeyOf(a, e.pop.Part) {
				return fmt.Errorf("shard %d: agent %s holds key id %d, which is not its design key", si, a.ID, id)
			}
			recount[id]++
		}
	}
	live, free := 0, 0
	for id, c := range t.counts {
		switch {
		case c == -1 && recount[id] == 0:
			free++
			continue
		case c != recount[id]:
			return fmt.Errorf("key id %d: refcount %d, views hold it %d times", id, c, recount[id])
		case c == 0:
			return fmt.Errorf("key id %d: zero-count key left in the table", id)
		}
		if got, ok := t.idx[t.keys[id]]; !ok || got != int32(id) {
			return fmt.Errorf("key id %d: its key is indexed as %d (present %v)", id, got, ok)
		}
		live++
	}
	if len(t.idx) != live {
		return fmt.Errorf("key table indexes %d keys, %d are live", len(t.idx), live)
	}
	if len(t.free) != free {
		return fmt.Errorf("key table: %d free ids listed, %d free", len(t.free), free)
	}
	if len(t.dead) != 0 {
		return fmt.Errorf("key table: %d dead ids left unswept", len(t.dead))
	}
	return nil
}

// ShardViews returns the engine's current shard views (sharing their
// slices with the engine).
func (e *Engine) ShardViews() []Shard {
	out := make([]Shard, len(e.shards))
	for i := range e.shards {
		out[i] = e.shards[i].sh
	}
	return out
}
