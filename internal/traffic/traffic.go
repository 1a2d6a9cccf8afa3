// Package traffic provides traffic matrices and the synthetic workloads
// used by the evaluation: gravity-model demand synthesis (Roughan's
// first-order characterization, as used by the paper for the Rocketfuel
// topologies), a 7-day hourly diurnal series standing in for the paper's
// proprietary US-ISP measurements, and traffic-class splits for prioritized
// R3 (TPRT / TPP / IP).
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/graph"
)

// Matrix is an origin-destination traffic matrix for an N-node network.
// Demands are in the same bandwidth units as link capacities (Mbps in this
// repository). The diagonal is always zero.
type Matrix struct {
	N int
	d []float64 // row-major: d[a*N+b]
}

// NewMatrix returns an all-zero N-by-N traffic matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, d: make([]float64, n*n)}
}

// At returns the demand from a to b.
func (m *Matrix) At(a, b graph.NodeID) float64 { return m.d[int(a)*m.N+int(b)] }

// Set assigns the demand from a to b. Setting a diagonal entry panics.
func (m *Matrix) Set(a, b graph.NodeID, v float64) {
	if a == b {
		panic("traffic: demand on the diagonal")
	}
	if v < 0 {
		panic(fmt.Sprintf("traffic: negative demand %v", v))
	}
	m.d[int(a)*m.N+int(b)] = v
}

// Total returns the sum of all demands.
func (m *Matrix) Total() float64 {
	var sum float64
	for _, v := range m.d {
		sum += v
	}
	return sum
}

// Scale multiplies every demand by f and returns m for chaining.
func (m *Matrix) Scale(f float64) *Matrix {
	for i := range m.d {
		m.d[i] *= f
	}
	return m
}

// Fingerprint returns a content hash of the matrix (FNV-1a over the
// demand bits and N). Caches keyed on it see through pointer identity:
// an in-place-mutated matrix fingerprints differently, while a Clone
// fingerprints the same.
func (m *Matrix) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(u uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (u >> s) & 0xff
			h *= prime
		}
	}
	mix(uint64(m.N))
	for _, v := range m.d {
		mix(math.Float64bits(v))
	}
	return h
}

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	cp := NewMatrix(m.N)
	copy(cp.d, m.d)
	return cp
}

// Add returns a new matrix m + o (entrywise). The sizes must match.
func (m *Matrix) Add(o *Matrix) *Matrix {
	if m.N != o.N {
		panic("traffic: size mismatch")
	}
	out := m.Clone()
	for i := range out.d {
		out.d[i] += o.d[i]
	}
	return out
}

// Pairs calls f for every OD pair with nonzero demand.
func (m *Matrix) Pairs(f func(a, b graph.NodeID, v float64)) {
	for a := 0; a < m.N; a++ {
		for b := 0; b < m.N; b++ {
			if v := m.d[a*m.N+b]; v > 0 {
				f(graph.NodeID(a), graph.NodeID(b), v)
			}
		}
	}
}

// Gravity synthesizes a traffic matrix with the gravity model: node masses
// are proportional to total incident capacity with lognormal noise, and
// d_ab ∝ mass_a * mass_b. The result is scaled so total demand equals
// total.
func Gravity(g *graph.Graph, total float64, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	mass := make([]float64, n)
	for i := 0; i < n; i++ {
		var c float64
		for _, id := range g.Out(graph.NodeID(i)) {
			c += g.Link(id).Capacity
		}
		// Lognormal noise, sigma ~0.5: realistic spread between PoPs with
		// the same connectivity.
		mass[i] = c * math.Exp(0.5*rng.NormFloat64())
	}
	var massSum float64
	for _, v := range mass {
		massSum += v
	}
	m := NewMatrix(n)
	var raw float64
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			v := mass[a] * mass[b] / massSum
			m.d[a*n+b] = v
			raw += v
		}
	}
	if raw > 0 {
		m.Scale(total / raw)
	}
	return m
}

// GravityTopK synthesizes a sparse gravity matrix: the same node masses
// and pair weights as Gravity, but only the k heaviest OD pairs carry
// demand, rescaled so total demand equals total. Ties break toward the
// lower pair index, so the support is a pure function of (g, seed, k).
// This is the only tractable way to drive 1000-node-class topologies: a
// dense gravity matrix there means ~10^6 commodities, and the planner's
// per-commodity state scales with support size, not node count.
func GravityTopK(g *graph.Graph, total float64, seed int64, k int) *Matrix {
	dense := Gravity(g, total, seed)
	n := dense.N
	if k <= 0 || k >= n*(n-1) {
		return dense
	}
	idx := make([]int32, 0, n*(n-1))
	for i, v := range dense.d {
		if v > 0 {
			idx = append(idx, int32(i))
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := dense.d[idx[a]], dense.d[idx[b]]
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	m := NewMatrix(n)
	var kept float64
	for _, i := range idx[:k] {
		m.d[i] = dense.d[i]
		kept += dense.d[i]
	}
	if kept > 0 {
		m.Scale(total / kept)
	}
	return m
}

// DiurnalSeries derives an hourly traffic-matrix series from a base matrix:
// hour-of-day profile (trough at ~05:00, peak at ~20:00), a weekend dip,
// and small per-OD multiplicative noise. hours is typically 168 (one week,
// as in the paper's US-ISP trace).
func DiurnalSeries(base *Matrix, hours int, seed int64) []*Matrix {
	rng := rand.New(rand.NewSource(seed))
	series := make([]*Matrix, hours)
	for h := 0; h < hours; h++ {
		hod := h % 24
		dow := (h / 24) % 7
		// Profile in [0.45, 1.0], peaking in the evening.
		f := 0.725 + 0.275*math.Sin(2*math.Pi*(float64(hod)-11)/24)
		if dow >= 5 {
			f *= 0.85
		}
		m := base.Clone()
		for i := range m.d {
			if m.d[i] == 0 {
				continue
			}
			noise := math.Exp(0.08 * rng.NormFloat64())
			m.d[i] *= f * noise
		}
		series[h] = m
	}
	return series
}

// PeakIndex returns the index of the matrix with the largest total demand.
func PeakIndex(series []*Matrix) int {
	best, bi := -1.0, 0
	for i, m := range series {
		if t := m.Total(); t > best {
			best, bi = t, i
		}
	}
	return bi
}

// Class identifies a traffic protection class for prioritized R3.
type Class int

// Traffic classes in decreasing protection level, as in the paper's
// prioritized example: real-time IP transport (protect against 4 failures),
// private transport (2), general IP (1).
const (
	TPRT Class = iota
	TPP
	IP
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case TPRT:
		return "TPRT"
	case TPP:
		return "TPP"
	case IP:
		return "IP"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// SplitClasses splits a total matrix into TPRT, TPP and IP class matrices
// with the given fractions for TPRT and TPP (IP receives the rest).
// Per-OD fractions get mild noise so the classes are not exact rescalings
// of each other.
func SplitClasses(total *Matrix, tprtFrac, tppFrac float64, seed int64) map[Class]*Matrix {
	if tprtFrac < 0 || tppFrac < 0 || tprtFrac+tppFrac > 1 {
		panic("traffic: bad class fractions")
	}
	rng := rand.New(rand.NewSource(seed))
	out := map[Class]*Matrix{
		TPRT: NewMatrix(total.N),
		TPP:  NewMatrix(total.N),
		IP:   NewMatrix(total.N),
	}
	for a := 0; a < total.N; a++ {
		for b := 0; b < total.N; b++ {
			v := total.d[a*total.N+b]
			if v == 0 {
				continue
			}
			jitter := func(f float64) float64 {
				x := f * (0.8 + 0.4*rng.Float64())
				if x > 1 {
					x = 1
				}
				return x
			}
			ft := jitter(tprtFrac)
			fp := jitter(tppFrac)
			if ft+fp > 1 {
				fp = 1 - ft
			}
			out[TPRT].d[a*total.N+b] = v * ft
			out[TPP].d[a*total.N+b] = v * fp
			out[IP].d[a*total.N+b] = v * (1 - ft - fp)
		}
	}
	return out
}

// AbileneMatrix returns a deterministic scaled-down Abilene traffic matrix
// (as the paper extracts from measurement data and scales for Emulab),
// sized for the 100 Mbps emulation links: gravity-based, with total demand
// set so that shortest-path routing stays uncongested in the failure-free
// case.
func AbileneMatrix(g *graph.Graph, total float64) *Matrix {
	return Gravity(g, total, 42)
}
