// Package deadexports is the input of TestDeadExportsFixture and, with
// package knobs, of TestTestOnlyKnobsFixture: seven names no non-test file
// uses, among names that are used in each way the checker must see.
package deadexports

import (
	"fmt"
	"sort"

	"deadexports/knobs"
)

// Orphan is exported and nothing calls it.
func Orphan() int { return Orphan() }

// Box has a field nothing reads, fields that are only written — by =,
// by ++ and element by element — and a method only a test calls.
type Box struct {
	Unread  int
	Size    int
	Written int
	Bumped  int
	Slots   [2]int
	items   []int
}

// Len, Less and Swap are reached only through sort.Interface.
func (b *Box) Len() int           { return len(b.items) }
func (b *Box) Less(i, j int) bool { return b.items[i] < b.items[j] }
func (b *Box) Swap(i, j int)      { b.items[i], b.items[j] = b.items[j], b.items[i] }

// Stale is called only from fixture_test.go.
func (b *Box) Stale() int { return b.Size }

// Sizer is the fixture's own interface; Count is reached only through it.
type Sizer interface{ Count() int }

func (b *Box) Count() int { return len(b.items) }

// Row's fields carry json tags, so encoding/json counts as their reader.
type Row struct {
	Name string `json:"name"`
}

// Sorted uses everything above that counts as used; init calls it.
func Sorted(items []int) (int, int) {
	b := &Box{Size: len(items), items: items}
	b.Written = len(items)
	b.Bumped++
	b.Slots[1] += len(items)
	sort.Sort(b)
	var s Sizer = b
	_ = Row{Name: "row"}
	return s.Count(), b.Size
}

// Tag is named only by the receiver of its String method, which
// fmt.Stringer requires.
type Tag int

func (t Tag) String() string { return fmt.Sprint(int(t)) }

// Configure sets knobs.Config the ways a program does and reads its
// output; init calls it.
func Configure() int {
	c := &knobs.Config{Keyed: 1}
	p := knobs.Set(c, []int{4})
	c.Run()
	return c.Out + p.A + p.B
}

func init() { Sorted(nil); Configure() }
