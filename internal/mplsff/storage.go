package mplsff

import (
	"repro/internal/graph"
	"repro/internal/routing"
)

// Storage accounting for Table 3: the router storage overhead of R3's
// MPLS-ff implementation. Sizes follow the Linux MPLS structures the
// paper's prototype extends: an ILM entry (label lookup key plus FWD
// header), an NHLFE (next hop, out label, splitting ratio), and a RIB
// entry (one nonzero p_l(e) fraction a router keeps to rescale locally).
const (
	// ILMEntryBytes covers the label key, FWD header and bookkeeping.
	ILMEntryBytes = 64
	// NHLFEBytes covers interface, label and ratio fields.
	NHLFEBytes = 48
	// RIBEntryBytes is one stored p fraction: (l, e, value).
	RIBEntryBytes = 16
)

// Storage summarizes per-router storage use, reported as the worst
// router in the network (matching Table 3's per-router bounds).
type Storage struct {
	// ILMEntries is the largest number of ILM entries on any router.
	ILMEntries int
	// NHLFEs is the largest number of NHLFE entries on any router.
	NHLFEs int
	// FIBBytes bounds the data-plane memory of the busiest router: its
	// ILM and NHLFE tables.
	FIBBytes int
	// RIBBytes bounds the control-plane storage of a router's local copy
	// of the protection routing p (nonzero fractions only).
	RIBBytes int
	// TotalNHLFEs is the network-wide NHLFE count (the paper's # NHLFE
	// column counts the network total).
	TotalNHLFEs int
	// TotalILM is the network-wide ILM count of distinct protection
	// labels (equals the number of protected links).
	TotalILM int
}

// MeasureStorage computes the storage overhead of the network's current
// tables.
func (n *Network) MeasureStorage() Storage {
	var s Storage
	nN := len(n.Routers)
	ilm, nhlfe := make([]int, nN), make([]int, nN)
	for _, row := range n.rows[nN*nN:] {
		if len(row) > 0 {
			s.TotalILM++
		}
		parts(row, func(u graph.NodeID, part []entry) {
			ilm[u]++
			for _, e := range part {
				if e.out != popOut {
					nhlfe[u]++
				}
			}
		})
	}
	for u := range nN {
		s.ILMEntries = max(s.ILMEntries, ilm[u])
		s.NHLFEs = max(s.NHLFEs, nhlfe[u])
		s.FIBBytes = max(s.FIBBytes, ilm[u]*ILMEntryBytes+nhlfe[u]*NHLFEBytes)
		s.TotalNHLFEs += nhlfe[u]
	}

	// RIB: each router stores the full p matrix's nonzero entries.
	nz := 0
	var row routing.SparseRow
	for l := 0; l < n.G.NumLinks(); l++ {
		row = n.state.ProtRow(graph.LinkID(l), row)
		for _, v := range row.Val {
			if v > 1e-12 {
				nz++
			}
		}
	}
	s.RIBBytes = nz * RIBEntryBytes
	return s
}
