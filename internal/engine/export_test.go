package engine

import "fmt"

// Holds reports whether the cache holds a menu for key, without counting
// a hit or a miss.
func (c *Cache) Holds(key DesignKey) bool {
	_, ok := c.peek(key)
	return ok
}

// CheckViews reports the first broken invariant of the engine's retained
// view: one outcome per view position; the policy's Shard aliasing the
// ID-sorted agents, with its columns and the contract slots aligned with
// them; and the key table (checkKeys).
func (e *Engine) CheckViews() error {
	if len(e.outs) != len(e.agents) {
		return fmt.Errorf("len(outs) = %d, len(agents) = %d", len(e.outs), len(e.agents))
	}
	if !e.agentsOK {
		return nil
	}
	sh := &e.sh
	switch {
	case len(sh.Agents) != len(e.agents) || (len(e.agents) > 0 && &sh.Agents[0] != &e.agents[0]):
		return fmt.Errorf("view of %d agents does not alias the engine's %d", len(sh.Agents), len(e.agents))
	case len(sh.Weights) != len(e.agents) || len(sh.Malice) != len(e.agents):
		return fmt.Errorf("%d weights, %d malice entries for %d agents", len(sh.Weights), len(sh.Malice), len(e.agents))
	case len(e.contracts) != len(e.agents):
		return fmt.Errorf("%d contract slots for %d agents", len(e.contracts), len(e.agents))
	}
	for j := 1; j < len(e.agents); j++ {
		if e.agents[j-1].ID >= e.agents[j].ID {
			return fmt.Errorf("view not ID-sorted at %d: %s, %s", j, e.agents[j-1].ID, e.agents[j].ID)
		}
	}
	return e.checkKeys()
}

// checkKeys reports the first broken invariant of the key table between
// rounds: the view's Keys aligned with Agents, each id resolving to
// DesignKeyOf(agent, pop.Part); every refcount equal to a recount over
// the views, with no zero-count (dead, unswept) key left; each live key
// indexed under its own id; and every other id on the free list.
func (e *Engine) checkKeys() error {
	t := &e.keys
	if len(t.counts) != len(t.keys) {
		return fmt.Errorf("key table: %d counts for %d keys", len(t.counts), len(t.keys))
	}
	recount := make([]int32, len(t.keys))
	sh := &e.sh
	if sh.table != t {
		return fmt.Errorf("view does not index the engine's key table")
	}
	if len(sh.Keys) != len(sh.Agents) {
		return fmt.Errorf("%d Keys for %d agents", len(sh.Keys), len(sh.Agents))
	}
	for j, id := range sh.Keys {
		a := sh.Agents[j]
		if id < 0 || int(id) >= len(t.keys) {
			return fmt.Errorf("agent %s holds key id %d outside a table of %d", a.ID, id, len(t.keys))
		}
		if t.keys[id] != DesignKeyOf(a, e.pop.Part) {
			return fmt.Errorf("agent %s holds key id %d, which is not its design key", a.ID, id)
		}
		recount[id]++
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

// ShardView returns the engine's current view as its ShardPolicy
// receives it (sharing its slices with the engine).
func (e *Engine) ShardView() Shard { return e.sh }

// HoldsContractMap reports whether the engine keeps an observer-facing
// per-ID contract map.
func (e *Engine) HoldsContractMap() bool { return e.merged != nil }
