package lp

import (
	"math"
	"testing"
)

// byteCoef maps one fuzz byte into a coefficient in [lo, hi].
func byteCoef(b byte, lo, hi float64) float64 {
	return lo + (hi-lo)*float64(b)/255
}

// FuzzLPDifferential cross-checks the revised simplex against exhaustive
// vertex enumeration on fuzzer-shaped 2-variable LPs with three <= rows
// (all-positive constraint coefficients, so the polytope is bounded and
// contains the origin: the LP must come back Optimal and match the best
// vertex). The seeds replay the golden cases from lp_test.go's random
// differential test plus warm-start re-solves of each instance.
func FuzzLPDifferential(f *testing.F) {
	f.Add([]byte{128, 128, 64, 64, 200, 32, 96, 150, 255, 1, 80, 90, 10})
	f.Add([]byte{0, 255, 255, 0, 1, 1, 254, 254, 128, 128, 128, 128, 128})
	f.Add([]byte{90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		c := []float64{byteCoef(data[0], -2, 2), byteCoef(data[1], -2, 2)}
		var rowsA [3][2]float64
		var rowsB [3]float64
		for i := 0; i < 3; i++ {
			rowsA[i] = [2]float64{byteCoef(data[2+3*i], 0.1, 2.1), byteCoef(data[3+3*i], 0.1, 2.1)}
			rowsB[i] = byteCoef(data[4+3*i], 1, 6)
		}
		p := NewProblem()
		x := p.AddVariable("x", c[0])
		y := p.AddVariable("y", c[1])
		for i := 0; i < 3; i++ {
			p.AddConstraint([]Term{{x, rowsA[i][0]}, {y, rowsA[i][1]}}, LE, rowsB[i])
		}
		sol, err := p.SolveFrom(nil)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		if sol.Status != Optimal {
			t.Fatalf("status %v on a bounded feasible LP", sol.Status)
		}

		// Brute force over vertices: the origin, axis intercepts, and
		// pairwise constraint intersections, keeping feasible ones.
		best := math.Inf(1)
		check := func(vx, vy float64) {
			if vx < -1e-9 || vy < -1e-9 {
				return
			}
			for i := 0; i < 3; i++ {
				if rowsA[i][0]*vx+rowsA[i][1]*vy > rowsB[i]+1e-7 {
					return
				}
			}
			if v := c[0]*vx + c[1]*vy; v < best {
				best = v
			}
		}
		check(0, 0)
		for i := 0; i < 3; i++ {
			check(rowsB[i]/rowsA[i][0], 0)
			check(0, rowsB[i]/rowsA[i][1])
			for j := i + 1; j < 3; j++ {
				det := rowsA[i][0]*rowsA[j][1] - rowsA[i][1]*rowsA[j][0]
				if math.Abs(det) < 1e-12 {
					continue
				}
				check((rowsB[i]*rowsA[j][1]-rowsA[i][1]*rowsB[j])/det,
					(rowsA[i][0]*rowsB[j]-rowsB[i]*rowsA[j][0])/det)
			}
		}
		if math.Abs(value(p, sol)-best) > 1e-6*(1+math.Abs(best)) {
			t.Fatalf("simplex %v, brute force %v", value(p, sol), best)
		}

		// Warm re-solve of the same instance must be pivot-free and agree.
		warm, err := p.SolveFrom(sol.Basis)
		if err != nil {
			t.Fatalf("warm re-solve: %v", err)
		}
		if !warm.WarmStarted || warm.Iterations != 0 {
			t.Fatalf("warm re-solve: started=%v pivots=%d", warm.WarmStarted, warm.Iterations)
		}
		if math.Abs(value(p, warm)-value(p, sol)) > 1e-9*(1+math.Abs(value(p, sol))) {
			t.Fatalf("warm value %v != cold %v", value(p, warm), value(p, sol))
		}

		// Perturbed-rhs warm solve must match its own cold solve.
		q := NewProblem()
		qx := q.AddVariable("x", c[0])
		qy := q.AddVariable("y", c[1])
		bump := byteCoef(data[len(data)-1], 0.5, 1.5)
		for i := 0; i < 3; i++ {
			q.AddConstraint([]Term{{qx, rowsA[i][0]}, {qy, rowsA[i][1]}}, LE, rowsB[i]*bump)
		}
		wq, err := q.SolveFrom(sol.Basis)
		if err != nil {
			t.Fatalf("warm perturbed solve: %v", err)
		}
		cq, err := q.SolveFrom(nil)
		if err != nil {
			t.Fatalf("cold perturbed solve: %v", err)
		}
		if wq.Status != cq.Status {
			t.Fatalf("perturbed status: warm %v cold %v", wq.Status, cq.Status)
		}
		if cq.Status == Optimal && math.Abs(value(q, wq)-value(q, cq)) > 1e-6*(1+math.Abs(value(q, cq))) {
			t.Fatalf("perturbed value: warm %v cold %v", value(q, wq), value(q, cq))
		}
	})
}

// FuzzLUSolve factorizes a fuzzer-shaped sparse basis of up to 8 rows and
// checks what a caller relies on, in both directions: a solve through a
// basis judged nonsingular leaves a residual ‖B·x − v‖ (‖Bᵀ·y − v‖) at
// rounding level relative to ‖B‖·‖x‖ + ‖v‖ however ill-conditioned the
// basis is, and a basis judged singular is one the dense oracle also finds
// a pivot under 1e-6 in. Byte 0 sets the size; each following byte is one
// cell, zero two times in three, then the right-hand side.
func FuzzLUSolve(f *testing.F) {
	f.Add([]byte{3, 255, 1, 2, 4, 255, 5, 7, 8, 255, 10, 20, 30})
	f.Add([]byte{2, 90, 90, 90, 90, 1, 2})                      // rank 1
	f.Add([]byte{6, 3, 0, 0, 0, 0, 6, 9, 3, 0, 0, 0, 0, 0, 12}) // mostly empty
	f.Add([]byte{4, 30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 63, 66, 69, 72, 75, 200, 100, 50, 25})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 2 + int(data[0])%7
		at := func(k int) byte {
			if 1+k < len(data) {
				return data[1+k]
			}
			return 0
		}
		cols := make([][]entry, m)
		bMax := 0.0
		for c := 0; c < m; c++ {
			for r := 0; r < m; r++ {
				if b := at(c*m + r); b%3 == 0 && b != 0 {
					v := byteCoef(b, -2, 2)
					cols[c] = append(cols[c], entry{r, v})
					bMax = math.Max(bMax, math.Abs(v))
				}
			}
		}
		v := make([]float64, m)
		for i := range v {
			v[i] = byteCoef(at(m*m+i), -1, 1)
		}
		sf, basis := basisOf(cols)
		sparse, dense := newLU(m), newDenseLU(m)
		if !sparse.factorize(sf, basis) {
			if dense.factorize(sf, basis) {
				for k := 0; k < m; k++ {
					if math.Abs(dense.a[k*m+k]) < 1e-6 {
						return
					}
				}
				t.Fatalf("judged singular, but the dense oracle's pivots are all above 1e-6")
			}
			return
		}
		x := append([]float64(nil), v...)
		sparse.ftran(x)
		y := append([]float64(nil), v...)
		sparse.btran(y)
		rx := append([]float64(nil), v...) // v − B·x
		ry := append([]float64(nil), v...) // v − Bᵀ·y
		for c, col := range cols {
			for _, e := range col {
				rx[e.idx] -= e.val * x[c]
				ry[c] -= e.val * y[e.idx]
			}
		}
		for dir, res := range [][]float64{rx, ry} {
			sol := [][]float64{x, y}[dir]
			if bound := 1e-9 * (maxAbs(v) + float64(m)*bMax*maxAbs(sol)); !(maxAbs(res) <= bound) {
				t.Fatalf("direction %d: residual %v over %v (|solution|∞ = %v)", dir, maxAbs(res), bound, maxAbs(sol))
			}
		}
	})
}
