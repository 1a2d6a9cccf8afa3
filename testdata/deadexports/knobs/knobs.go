// Package knobs is TestTestOnlyKnobsFixture's input: each field of Config
// is written in one way only, or by nothing the checker counts.
package knobs

// Config has one field per case.
type Config struct {
	TestOnly  int    // set only by knobs_test.go: a knob
	Defaulted int    // set only by its own defaults: a knob
	Keyed     int    // set by a keyed literal in package deadexports
	Assigned  int    // set by =
	Bumped    int    // set by ++
	RangeKey  int    // set as a range key
	Ranged    int    // set as a range value
	Addressed int    // set through &
	Elems     [2]int // set element by element
	Out       int    // Run's output, read by package deadexports
	Kept      int    // written by Run and read only in this package: a knob
}

func (c *Config) defaults() {
	if c.Defaulted == 0 {
		c.Defaulted = 8
	}
}

// Run reads every setting and writes Out and Kept.
func (c *Config) Run() int {
	c.defaults()
	c.Out = c.TestOnly + c.Defaulted + c.Keyed + c.Assigned + c.Bumped + c.RangeKey + c.Ranged + c.Addressed + c.Elems[0]
	c.Kept = c.Out
	return c.Kept
}

// Pair is only ever built positionally.
type Pair struct{ A, B int }

// Set writes Config's fields each in its own way and builds a Pair.
func Set(c *Config, xs []int) Pair {
	c.Assigned = 1
	c.Bumped++
	for c.RangeKey, c.Ranged = range xs {
	}
	p := &c.Addressed
	*p = 2
	c.Elems[1] = 3
	return Pair{c.Assigned, c.Bumped}
}
