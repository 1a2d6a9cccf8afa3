package lp

import "math"

// denseLU is a dense LU factorization with partial pivoting, the oracle
// the differential tests hold the sparse luFact against: P·B = L·U, stored
// packed in a (L below the diagonal, unit diagonal implicit; U on and
// above it) with the row swaps in piv. It sweeps m² cells per solve, so it
// stays out of non-test code.
type denseLU struct {
	m   int
	a   []float64 // m×m row-major
	piv []int     // piv[k] is the row swapped with k at step k
}

func newDenseLU(m int) *denseLU {
	return &denseLU{m: m, a: make([]float64, m*m), piv: make([]int, m)}
}

// factorize decomposes the basis given by the column indices in basis
// (into sf's sparse columns). It reports false when the basis is
// numerically singular, leaving the factorization unusable.
func (f *denseLU) factorize(sf *stdForm, basis []int) bool {
	m := f.m
	a := f.a
	for i := range a {
		a[i] = 0
	}
	for c, col := range basis {
		for _, e := range sf.cols[col] {
			a[e.idx*m+c] = e.val
		}
	}
	for k := 0; k < m; k++ {
		// Partial pivoting: largest magnitude in column k at or below the
		// diagonal.
		p, best := k, math.Abs(a[k*m+k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(a[i*m+k]); v > best {
				p, best = i, v
			}
		}
		f.piv[k] = p
		if best < luTiny {
			return false
		}
		if p != k {
			rk, rp := a[k*m:k*m+m], a[p*m:p*m+m]
			for j := 0; j < m; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		inv := 1 / a[k*m+k]
		rowk := a[k*m : k*m+m]
		for i := k + 1; i < m; i++ {
			l := a[i*m+k]
			if l == 0 {
				continue
			}
			l *= inv
			rowi := a[i*m : i*m+m]
			rowi[k] = l
			for j := k + 1; j < m; j++ {
				rowi[j] -= l * rowk[j]
			}
		}
	}
	return true
}

// ftran solves B·x = v in place (forward transformation).
func (f *denseLU) ftran(v []float64) {
	m := f.m
	a := f.a
	for k := 0; k < m; k++ {
		if p := f.piv[k]; p != k {
			v[k], v[p] = v[p], v[k]
		}
	}
	for k := 0; k < m; k++ {
		vk := v[k]
		if vk == 0 {
			continue
		}
		for i := k + 1; i < m; i++ {
			v[i] -= a[i*m+k] * vk
		}
	}
	for k := m - 1; k >= 0; k-- {
		s := v[k]
		row := a[k*m : k*m+m]
		for j := k + 1; j < m; j++ {
			s -= row[j] * v[j]
		}
		v[k] = s / row[k]
	}
}

// btran solves Bᵀ·y = c in place (backward transformation): with
// P·B = L·U this is Uᵀz = c, Lᵀt = z, y = Pᵀt.
func (f *denseLU) btran(v []float64) {
	m := f.m
	a := f.a
	for k := 0; k < m; k++ {
		s := v[k]
		for j := 0; j < k; j++ {
			s -= a[j*m+k] * v[j]
		}
		v[k] = s / a[k*m+k]
	}
	for k := m - 1; k >= 0; k-- {
		s := v[k]
		for j := k + 1; j < m; j++ {
			s -= a[j*m+k] * v[j]
		}
		v[k] = s
	}
	for k := m - 1; k >= 0; k-- {
		if p := f.piv[k]; p != k {
			v[k], v[p] = v[p], v[k]
		}
	}
}
