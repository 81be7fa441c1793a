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
// and every view agent in exactly one shard, the one ShardOf names.
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
