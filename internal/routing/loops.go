package routing

import (
	"math"
	"slices"

	"repro/internal/graph"
)

// loopEps is the loop-cancellation kernel's support threshold: a cell at or
// below it is not part of any cycle, and a cell a cancellation leaves below
// it is set to zero.
const loopEps = 1e-12

// DFS colors of the loop-cancellation kernel.
const (
	white = iota
	gray
	black
)

// LoopScratch is the loop-cancellation kernel's working memory: per-node
// DFS colors and entry links, the DFS stack, the last cycle found and the
// DFS roots. It grows to the largest graph it has served and is reused
// from call to call, so a warm call allocates nothing. The zero value is
// ready to use; a LoopScratch must not be shared between goroutines.
type LoopScratch struct {
	color   []uint8
	parent  []int32 // the link the DFS entered each node by
	seen    []bool  // per node: already among roots; all false between calls
	touched []int32 // nodes colored since the last reset
	stack   []loopFrame
	cycle   []int32
	roots   []int32
}

// loopFrame is one DFS stack entry: a node and the position in the CSR's
// OutLinks of the next out-link to try.
type loopFrame struct{ u, next int32 }

func (s *LoopScratch) size(n int) {
	if len(s.color) < n {
		s.color = make([]uint8, n)
		s.parent = make([]int32, n)
		s.seen = make([]bool, n)
	}
}

// CancelLoops cancels the circulations of the row: it scatters the row
// into zero, a dense row of link count length that is all zero on entry and
// on return, cancels there, and reads the row back in ascending link order
// with exact zeros dropped — the row SetDense makes of the dense kernel's
// (removeCycles') result on the dense row, bit for bit.
//
// The DFS is rooted only at the tails of the row's links, in ascending
// node order, where the dense kernel tries every node: a node with no
// outgoing support only turns itself black, and a later visit to it,
// white or black, does nothing else either, so both find the same cycles
// in the same order. On a row of finite cells the root order does not
// change the result: each cycle the search closes leaves every node by its
// first out-link whose head still reaches a cycle, so the cycles on offer
// at any step are node-disjoint and cancelling them commutes. A cycle with
// no finite cell stops the kernel, though, and which cycles were cancelled
// before it depends on the order, so the roots are sorted.
func (r *SparseRow) CancelLoops(g *graph.Graph, zero []float64, s *LoopScratch) {
	c := g.CSR()
	s.size(c.N)
	r.Scatter(zero)
	s.roots = s.roots[:0]
	for _, e := range r.Idx {
		if u := c.Src[e]; !s.seen[u] {
			s.seen[u] = true
			s.roots = append(s.roots, u)
		}
	}
	for _, u := range s.roots {
		s.seen[u] = false
	}
	slices.Sort(s.roots)
	s.cancel(c, zero)

	// Cancellation only lowers cells, so the support can only shrink.
	slices.Sort(r.Idx)
	n := 0
	for _, e := range r.Idx {
		if v := zero[e]; v != 0 {
			r.Idx[n], r.Val[n] = e, v
			n++
		}
		zero[e] = 0
	}
	r.Idx, r.Val = r.Idx[:n], r.Val[:n]
}

// removeCycles cancels the circulations of a dense row in place, rooting
// the DFS at every node with outgoing support, in ascending order.
func (s *LoopScratch) removeCycles(c *graph.CSR, frac []float64) {
	s.size(c.N)
	s.roots = s.roots[:0]
	for u := 0; u < c.N; u++ {
		for _, id := range c.OutLinks[c.OutHead[u]:c.OutHead[u+1]] {
			if !(frac[id] <= loopEps) { // NaN is in the support
				s.roots = append(s.roots, int32(u))
				break
			}
		}
	}
	s.cancel(c, frac)
}

// cancel is the kernel: it repeatedly finds a directed cycle in the support
// of frac, DFS-rooted at s.roots in order, and subtracts the cycle's
// bottleneck. Every cancellation zeroes the bottleneck cell, so the loop
// ends — unless no cell of the cycle is finite (NaN and +Inf cells are in
// the support), where the bottleneck stays +Inf and the kernel stops.
func (s *LoopScratch) cancel(c *graph.CSR, frac []float64) {
	for s.findCycle(c, frac) {
		bottleneck := math.Inf(1)
		for _, id := range s.cycle {
			if frac[id] < bottleneck {
				bottleneck = frac[id]
			}
		}
		if math.IsInf(bottleneck, 1) {
			return
		}
		for _, id := range s.cycle {
			frac[id] -= bottleneck
			if frac[id] < loopEps {
				frac[id] = 0
			}
		}
	}
}

// findCycle leaves the links of some directed cycle in the support of frac
// in s.cycle and reports whether there is one. Every node it colors is
// white again on return.
func (s *LoopScratch) findCycle(c *graph.CSR, frac []float64) bool {
	found := false
	for _, u := range s.roots {
		if s.color[u] == white && s.dfs(c, frac, u) {
			found = true
			break
		}
	}
	for _, u := range s.touched {
		s.color[u] = white
	}
	s.touched = s.touched[:0]
	return found
}

// dfs is the depth-first search of findCycle from root, on an explicit
// stack: each frame resumes its node's out-links where the child it
// descended into left off, as the recursive search returning from the
// child would.
func (s *LoopScratch) dfs(c *graph.CSR, frac []float64, root int32) bool {
	s.push(c, root)
	for len(s.stack) > 0 {
		f := &s.stack[len(s.stack)-1]
		u, end := f.u, c.OutHead[f.u+1]
		descended := false
	links:
		for f.next < end {
			id := c.OutLinks[f.next]
			f.next++
			if frac[id] <= loopEps {
				continue
			}
			switch v := c.Dst[id]; s.color[v] {
			case white:
				s.parent[v] = id
				s.push(c, v) // f is stale from here on
				descended = true
				break links
			case gray:
				// A cycle: the link back to v, then the tree path from u up
				// to v.
				s.cycle = append(s.cycle[:0], id)
				for w := u; w != v; {
					pid := s.parent[w]
					s.cycle = append(s.cycle, pid)
					w = c.Src[pid]
				}
				s.stack = s.stack[:0]
				return true
			}
		}
		if !descended {
			s.color[u] = black
			s.stack = s.stack[:len(s.stack)-1]
		}
	}
	return false
}

func (s *LoopScratch) push(c *graph.CSR, u int32) {
	s.color[u] = gray
	s.touched = append(s.touched, u)
	s.stack = append(s.stack, loopFrame{u, c.OutHead[u]})
}
