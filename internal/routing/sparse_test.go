package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// denseMix is the planners' dense row update, v ← (1-γ)·v + γ·x, with each
// product rounded before the add (what amd64 computes; the conversions
// keep a fusing platform to it).
func denseMix(row, x []float64, gamma float64) {
	for e := range row {
		row[e] = float64((1-gamma)*row[e]) + float64(gamma*x[e])
	}
}

// randPath draws a simple "path": a few distinct links in random order.
func randPath(rng *rand.Rand, nL int) []graph.LinkID {
	perm := rng.Perm(nL)[:1+rng.Intn(6)]
	path := make([]graph.LinkID, len(perm))
	for i, e := range perm {
		path[i] = graph.LinkID(e)
	}
	return path
}

func indicator(nL int, path []graph.LinkID) []float64 {
	x := make([]float64, nL)
	for _, id := range path {
		x[id] = 1
	}
	return x
}

func randGamma(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 1 // the whole row decays to exact zeros and keeps its slots
	case 1:
		return 1e-9 * rng.Float64()
	default:
		return rng.Float64()
	}
}

// TestSparseRowMatchesDenseRow drives a SparseRow and a plain dense row
// through the same random sequence of the operations the planners perform
// — move toward a path, self-mix, edit through a scattered dense view and
// gather back, snapshot and restore — and after every step compares the
// row, and the loads it accumulates, bit for bit. The shared scratch must
// come back all zero from every operation that borrows it, and Clear must
// undo a Scatter.
func TestSparseRowMatchesDenseRow(t *testing.T) {
	const nL = 48
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		dense := make([]float64, nL)
		var row, snap SparseRow
		var denseSnap []float64
		scratch := make([]float64, nL)

		start := randPath(rng, nL)
		row.SetPath(start)
		copy(dense, indicator(nL, start))
		if seed%2 == 1 {
			// Start from an arbitrary dense row instead, as a supplied base
			// routing does.
			for e := range dense {
				dense[e] = 0
				if rng.Intn(5) == 0 {
					dense[e] = rng.Float64()
				}
			}
			row.SetDense(dense)
		}

		check := func(step int, op string) {
			t.Helper()
			for e, v := range scratch {
				if v != 0 {
					t.Fatalf("seed %d step %d %s: scratch[%d] = %v, want all zero", seed, step, op, e, v)
				}
			}
			seen := map[int32]bool{}
			for _, e := range row.Idx {
				if seen[e] {
					t.Fatalf("seed %d step %d %s: link %d twice in the support", seed, step, op, e)
				}
				seen[e] = true
			}
			got := make([]float64, nL)
			row.Scatter(got)
			for e := range dense {
				if math.Float64bits(got[e]) != math.Float64bits(dense[e]) {
					t.Fatalf("seed %d step %d %s: row[%d] = %v, dense %v", seed, step, op, e, got[e], dense[e])
				}
			}
			row.Clear(got)
			for e, v := range got {
				if v != 0 {
					t.Fatalf("seed %d step %d %s: Clear left got[%d] = %v", seed, step, op, e, v)
				}
			}
			d := 1 + 9*rng.Float64()
			loads, want := make([]float64, nL), make([]float64, nL)
			for e := range loads {
				loads[e] = rng.Float64()
				want[e] = loads[e]
				if v := dense[e]; v != 0 {
					want[e] += float64(d * v)
				}
			}
			row.AddLoads(d, loads)
			for e := range want {
				if math.Float64bits(loads[e]) != math.Float64bits(want[e]) {
					t.Fatalf("seed %d step %d %s: loads[%d] = %v, dense %v", seed, step, op, e, loads[e], want[e])
				}
			}
		}
		check(-1, "init")

		for step := 0; step < 400; step++ {
			gamma := randGamma(rng)
			var op string
			switch rng.Intn(6) {
			case 0, 1:
				op = "path-mix"
				path := randPath(rng, nL)
				row.MoveToward(gamma, path, scratch)
				denseMix(dense, indicator(nL, path), gamma)
			case 2:
				op = "self-mix"
				row.SelfMix(gamma)
				denseMix(dense, append([]float64(nil), dense...), gamma)
			case 3:
				op = "scatter-gather"
				path := randPath(rng, nL)
				row.Scatter(scratch)
				denseMix(scratch, indicator(nL, path), gamma)
				row.Gather(scratch, path)
				denseMix(dense, indicator(nL, path), gamma)
			case 4:
				op = "snapshot"
				snap.CopyFrom(&row)
				denseSnap = append(denseSnap[:0], dense...)
			default:
				op = "restore"
				if denseSnap == nil {
					continue
				}
				row.CopyFrom(&snap)
				copy(dense, denseSnap)
			}
			check(step, op)
		}
	}
}
