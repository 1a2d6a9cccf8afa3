package graph

// CSR is a compressed-sparse-row view of a Graph: adjacency and link
// attributes flattened into contiguous arrays so hot loops (shortest-path
// kernels, load accumulation) read memory sequentially instead of chasing
// per-link structs behind interface or closure calls.
//
// Layout: links keep their Graph IDs. OutLinks[OutHead[n]:OutHead[n+1]]
// are the IDs of links leaving node n, in the same order Graph.Out
// returns them; InLinks is the mirror over Graph.In. Src/Dst/Weight/
// Capacity are indexed by link ID.
//
// A CSR is an immutable snapshot: it must not be modified, and it is
// invalidated (lazily, on the next CSR call) by any Graph mutation,
// including SetWeight and SetCapacity.
type CSR struct {
	N int // number of nodes

	OutHead  []int32 // len N+1
	OutLinks []int32 // len NumLinks, grouped by source node
	InHead   []int32 // len N+1
	InLinks  []int32 // len NumLinks, grouped by destination node

	Src      []int32   // per link: source node
	Dst      []int32   // per link: destination node
	Weight   []float64 // per link: IGP metric
	Capacity []float64 // per link: capacity
}

// NumLinks reports the number of directed links in the view.
func (c *CSR) NumLinks() int { return len(c.Src) }

// CSR returns the flat view of the graph, building and caching it on
// first use. The cache is invalidated by every mutation (adding nodes or
// links, SetWeight, SetCapacity), so the returned snapshot always matches
// the graph; concurrent CSR calls are safe, concurrent mutation is not
// (the Graph itself has never supported that).
func (g *Graph) CSR() *CSR {
	g.csrMu.Lock()
	defer g.csrMu.Unlock()
	if g.csr == nil {
		g.csr = buildCSR(g)
	}
	return g.csr
}

func (g *Graph) invalidateCSR() {
	g.csrMu.Lock()
	g.csr = nil
	g.csrMu.Unlock()
}

func buildCSR(g *Graph) *CSR {
	nN, nL := len(g.nodes), len(g.links)
	c := &CSR{
		N:        nN,
		OutHead:  make([]int32, nN+1),
		OutLinks: make([]int32, 0, nL),
		InHead:   make([]int32, nN+1),
		InLinks:  make([]int32, 0, nL),
		Src:      make([]int32, nL),
		Dst:      make([]int32, nL),
		Weight:   make([]float64, nL),
		Capacity: make([]float64, nL),
	}
	for n := 0; n < nN; n++ {
		c.OutHead[n] = int32(len(c.OutLinks))
		for _, id := range g.out[n] {
			c.OutLinks = append(c.OutLinks, int32(id))
		}
		c.InHead[n] = int32(len(c.InLinks))
		for _, id := range g.in[n] {
			c.InLinks = append(c.InLinks, int32(id))
		}
	}
	c.OutHead[nN] = int32(len(c.OutLinks))
	c.InHead[nN] = int32(len(c.InLinks))
	for i, l := range g.links {
		c.Src[i] = int32(l.Src)
		c.Dst[i] = int32(l.Dst)
		c.Weight[i] = l.Weight
		c.Capacity[i] = l.Capacity
	}
	return c
}
