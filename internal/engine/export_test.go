package engine

// Holds reports whether the cache holds a menu for key, without counting
// a hit or a miss.
func (c *Cache) Holds(key DesignKey) bool {
	_, ok := c.peek(key)
	return ok
}
