// Package graph provides the directed network topology model used by every
// other package in this repository: nodes, capacitated directed links,
// shared-risk link groups (SRLGs), maintenance link groups (MLGs), and
// cheap "alive subset" views used when evaluating failure scenarios.
package graph

import (
	"fmt"
	"sync"
)

// NodeID identifies a router in a Graph. IDs are dense, starting at 0.
type NodeID int

// LinkID identifies a directed link in a Graph. IDs are dense, starting at 0.
type LinkID int

// Link is a directed network link from Src to Dst.
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	// Capacity is the link capacity in abstract bandwidth units
	// (the evaluation uses Mbps).
	Capacity float64
	// Delay is the one-way propagation delay in milliseconds.
	Delay float64
	// Weight is the IGP metric used by shortest-path routing. The zero
	// value is replaced by 1 when the link is added.
	Weight float64
	// Reverse is the ID of the opposite-direction link if the link was
	// added with AddDuplex, or -1 for a simplex link.
	Reverse LinkID
}

// Graph is a directed multigraph. The zero value is an empty graph ready to
// use; most callers construct one via New and the builder methods.
type Graph struct {
	Name string

	nodes  []string
	byName map[string]NodeID
	links  []Link
	out    [][]LinkID
	in     [][]LinkID

	// srlgs and mlgs are groups of links that fail (or are taken down)
	// together. They drive the structured failure model of R3 §3.5.
	srlgs [][]LinkID
	mlgs  [][]LinkID

	// csr caches the flat CSR view; nil after any mutation. Guarded by
	// csrMu so concurrent readers (parallel evaluation workers) can share
	// one lazily built snapshot.
	csrMu sync.Mutex
	csr   *CSR
}

// New returns an empty named graph.
func New(name string) *Graph {
	return &Graph{Name: name, byName: make(map[string]NodeID)}
}

// AddNode adds a router with the given name and returns its ID. Adding a
// name that already exists returns the existing ID.
func (g *Graph) AddNode(name string) NodeID {
	if g.byName == nil {
		g.byName = make(map[string]NodeID)
	}
	if id, ok := g.byName[name]; ok {
		return id
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, name)
	g.byName[name] = id
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.invalidateCSR()
	return id
}

// AddLink adds a directed link and returns its ID. A zero weight is
// normalized to 1. It panics if src or dst is out of range or src == dst.
func (g *Graph) AddLink(src, dst NodeID, capacity, delay, weight float64) LinkID {
	if src == dst {
		panic(fmt.Sprintf("graph: self loop at node %d", src))
	}
	if int(src) >= len(g.nodes) || int(dst) >= len(g.nodes) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("graph: link endpoints %d->%d out of range", src, dst))
	}
	if weight == 0 {
		weight = 1
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: id, Src: src, Dst: dst,
		Capacity: capacity, Delay: delay, Weight: weight,
		Reverse: -1,
	})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	g.invalidateCSR()
	return id
}

// AddDuplex adds a pair of opposite directed links with identical capacity,
// delay and weight, and cross-links their Reverse fields. It returns both
// IDs.
func (g *Graph) AddDuplex(a, b NodeID, capacity, delay, weight float64) (ab, ba LinkID) {
	ab = g.AddLink(a, b, capacity, delay, weight)
	ba = g.AddLink(b, a, capacity, delay, weight)
	g.links[ab].Reverse = ba
	g.links[ba].Reverse = ab
	return ab, ba
}

// NumNodes reports the number of routers.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks reports the number of directed links.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns the name of node id.
func (g *Graph) Node(id NodeID) string { return g.nodes[id] }

// NodeByName returns the ID for a router name.
func (g *Graph) NodeByName(name string) (NodeID, bool) {
	id, ok := g.byName[name]
	return id, ok
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Links returns all links. The returned slice must not be modified.
func (g *Graph) Links() []Link { return g.links }

// SetWeight updates the IGP weight of a link (and not its reverse).
func (g *Graph) SetWeight(id LinkID, w float64) {
	g.links[id].Weight = w
	g.invalidateCSR()
}

// SetCapacity updates the capacity of a link (and not its reverse).
func (g *Graph) SetCapacity(id LinkID, c float64) {
	g.links[id].Capacity = c
	g.invalidateCSR()
}

// Out returns the IDs of links leaving node n. The slice must not be
// modified.
func (g *Graph) Out(n NodeID) []LinkID { return g.out[n] }

// In returns the IDs of links entering node n. The slice must not be
// modified.
func (g *Graph) In(n NodeID) []LinkID { return g.in[n] }

// FindLink returns the first link from src to dst, if any.
func (g *Graph) FindLink(src, dst NodeID) (LinkID, bool) {
	for _, id := range g.out[src] {
		if g.links[id].Dst == dst {
			return id, true
		}
	}
	return -1, false
}

// AddSRLG registers a shared-risk link group: a set of links that fail
// together (e.g. IP links riding the same fiber conduit). Returns the group
// index.
func (g *Graph) AddSRLG(links ...LinkID) int {
	cp := append([]LinkID(nil), links...)
	g.srlgs = append(g.srlgs, cp)
	return len(g.srlgs) - 1
}

// AddMLG registers a maintenance link group: a set of links taken down in
// the same maintenance operation. Returns the group index.
func (g *Graph) AddMLG(links ...LinkID) int {
	cp := append([]LinkID(nil), links...)
	g.mlgs = append(g.mlgs, cp)
	return len(g.mlgs) - 1
}

// SRLGs returns the registered shared-risk link groups.
func (g *Graph) SRLGs() [][]LinkID { return g.srlgs }

// MLGs returns the registered maintenance link groups.
func (g *Graph) MLGs() [][]LinkID { return g.mlgs }

// TotalCapacity returns the sum of all link capacities.
func (g *Graph) TotalCapacity() float64 {
	var sum float64
	for _, l := range g.links {
		sum += l.Capacity
	}
	return sum
}

// String implements fmt.Stringer with a one-line summary.
func (g *Graph) String() string {
	return fmt.Sprintf("%s: %d nodes, %d directed links", g.Name, len(g.nodes), len(g.links))
}

// Degree returns the out-degree of node n counting distinct neighbors.
func (g *Graph) Degree(n NodeID) int {
	seen := make(map[NodeID]bool)
	for _, id := range g.out[n] {
		seen[g.links[id].Dst] = true
	}
	return len(seen)
}

// MaxDegree returns the maximum node degree in the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for n := 0; n < len(g.nodes); n++ {
		if d := g.Degree(NodeID(n)); d > max {
			max = d
		}
	}
	return max
}

// Connected reports whether every node can reach every other node over
// the links outside down (nil = all links up). Graphs with fewer than two
// nodes are connected.
func (g *Graph) Connected(down *LinkSet) bool {
	n := len(g.nodes)
	if n < 2 {
		return true
	}
	// Strong connectivity via forward and reverse BFS from node 0.
	if g.reachCount(0, down, false) != n {
		return false
	}
	return g.reachCount(0, down, true) == n
}

// ReachableFrom returns the set of nodes reachable from src over the links
// outside down (including src itself).
func (g *Graph) ReachableFrom(src NodeID, down *LinkSet) []bool {
	seen := make([]bool, len(g.nodes))
	g.bfs(src, down, false, seen)
	return seen
}

func (g *Graph) reachCount(src NodeID, down *LinkSet, reverse bool) int {
	seen := make([]bool, len(g.nodes))
	g.bfs(src, down, reverse, seen)
	count := 0
	for _, s := range seen {
		if s {
			count++
		}
	}
	return count
}

func (g *Graph) bfs(src NodeID, down *LinkSet, reverse bool, seen []bool) {
	queue := []NodeID{src}
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		var edges []LinkID
		if reverse {
			edges = g.in[u]
		} else {
			edges = g.out[u]
		}
		for _, id := range edges {
			if down != nil && down.Contains(id) {
				continue
			}
			var v NodeID
			if reverse {
				v = g.links[id].Src
			} else {
				v = g.links[id].Dst
			}
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:   g.Name,
		nodes:  append([]string(nil), g.nodes...),
		byName: make(map[string]NodeID, len(g.byName)),
		links:  append([]Link(nil), g.links...),
	}
	for k, v := range g.byName {
		ng.byName[k] = v
	}
	ng.out = make([][]LinkID, len(g.out))
	for i, s := range g.out {
		ng.out[i] = append([]LinkID(nil), s...)
	}
	ng.in = make([][]LinkID, len(g.in))
	for i, s := range g.in {
		ng.in[i] = append([]LinkID(nil), s...)
	}
	for _, grp := range g.srlgs {
		ng.srlgs = append(ng.srlgs, append([]LinkID(nil), grp...))
	}
	for _, grp := range g.mlgs {
		ng.mlgs = append(ng.mlgs, append([]LinkID(nil), grp...))
	}
	return ng
}
