package cachesim

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.heads) }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }
