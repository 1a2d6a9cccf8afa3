package netem

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/graph"
	"repro/internal/spf"
)

// OSPFReconForwarder models plain OSPF with reconvergence: hash-based
// ECMP toward the destination on the currently converged topology.
// Failures take detectDelay + ConvergeDelay before the tables change;
// until then packets blackhole at the failed link.
type OSPFReconForwarder struct {
	G *graph.Graph

	failed graph.LinkSet
	// next[dst][node] lists ECMP next-hop links.
	next map[graph.NodeID][][]graph.LinkID
}

// NewOSPFRecon builds the forwarder with converged (failure-free) tables.
func NewOSPFRecon(g *graph.Graph) *OSPFReconForwarder {
	f := &OSPFReconForwarder{G: g}
	f.reconverge()
	return f
}

// Name implements Forwarder.
func (f *OSPFReconForwarder) Name() string { return "OSPF+recon" }

// ApplyFailure implements Forwarder.
func (f *OSPFReconForwarder) ApplyFailure(e graph.LinkID) {
	if f.failed.Contains(e) {
		return
	}
	f.failed.Add(e)
	f.reconverge()
}

func (f *OSPFReconForwarder) reconverge() {
	g := f.G
	c := g.CSR()
	cost := spf.WeightCost(g)
	f.next = make(map[graph.NodeID][][]graph.LinkID, g.NumNodes())
	var s spf.Scratch
	for dvi := 0; dvi < g.NumNodes(); dvi++ {
		dst := graph.NodeID(dvi)
		spf.SPFTo(c, dst, cost, &f.failed, &s)
		table := make([][]graph.LinkID, g.NumNodes())
		for u := range table {
			table[u] = spf.Hops(c, graph.NodeID(u), cost, &f.failed, s.Dist, s.Next, nil)
		}
		f.next[dst] = table
	}
}

// Forward implements Forwarder.
func (f *OSPFReconForwarder) Forward(u graph.NodeID, pk *Packet) (graph.LinkID, bool) {
	table := f.next[pk.Dst]
	if table == nil {
		return 0, false
	}
	hops := table[u]
	if len(hops) == 0 {
		return 0, false
	}
	if len(hops) == 1 {
		return hops[0], true
	}
	h := fnv.New32a()
	var buf [14]byte
	binary.BigEndian.PutUint32(buf[0:], pk.Flow.SrcIP)
	binary.BigEndian.PutUint32(buf[4:], pk.Flow.DstIP)
	binary.BigEndian.PutUint16(buf[8:], pk.Flow.SrcPort)
	binary.BigEndian.PutUint16(buf[10:], pk.Flow.DstPort)
	binary.BigEndian.PutUint16(buf[12:], uint16(u))
	h.Write(buf[:])
	return hops[int(h.Sum32())%len(hops)], true
}
