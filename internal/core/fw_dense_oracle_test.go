package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/spf"
)

// denseFW is the solver's protection half as it was while the protection
// routing was dense: P, pcol, the p direction and its columns, and the
// gradient costs as link × link matrices, every protection phase written
// over them, and line searches that evaluate one probe at a time, every
// cell from scratch through sweepLSE.direct. The r half (R, loads, q,
// rDirections, baseLoads, softmaxWeights, trueObj) is the embedded
// fwState's own. It is the oracle the sparse solver is held
// to bit for bit (TestSparseProtectionMatchesDenseOracle), as minMLUDense
// is for mcf.MinMLU.
type denseFW struct {
	*fwState
	P, pcol              [][]float64 // [protected l][link e], [link e][protected l]
	dirP, pcolDir, costP [][]float64
}

func newDenseFW(s *fwState) *denseFW {
	nL := s.g.NumLinks()
	d := &denseFW{fwState: s, P: newMatrix(nL, nL), dirP: newMatrix(nL, nL), pcolDir: newMatrix(nL, nL), costP: newMatrix(nL, nL)}
	for l := range s.P {
		s.P[l].Scatter(d.P[l])
	}
	return d
}

// direct evaluates sweepLSE's contract from scratch at one probe whose
// every cell's utilization u holds, flat [req*link], re-keying c.key as
// open would. It reads stamp, gen, live, key and μ only.
func (c *sweepLSE) direct(u []float64) float64 {
	nL := len(c.stamp)
	static := func(t int) bool { return (c.live != nil && !c.live[t/nL]) || c.stamp[t%nL] != c.gen }
	sm, w := 0.0, 0.0
	for t, x := range u {
		if static(t) && x > sm {
			sm = x
		}
		if x > w {
			w = x
		}
	}
	c.key = lseRekey(c.key, sm, c.mu)
	var zs float64
	for t, x := range u {
		if static(t) {
			zs += math.Exp((x - c.key) / c.mu)
		}
	}
	z := zs * math.Exp((c.key-w)/c.mu)
	for t, x := range u {
		if !static(t) {
			z += math.Exp((x - w) / c.mu)
		}
	}
	return w + c.mu*math.Log(z)
}

// ternaryMinSingle is the single-probe ternary search the paired
// ternaryMin replaced.
func ternaryMinSingle(f func(float64) float64, iters int) float64 {
	lo, hi := 0.0, 1.0
	for t := 0; t < iters; t++ {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if f(m1) <= f(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	return (lo + hi) / 2
}

// columns builds pcol[e][l] = c_l * P[l][e] into dst (allocated when nil).
func (d *denseFW) columns(P [][]float64, dst [][]float64) [][]float64 {
	nL := d.g.NumLinks()
	if dst == nil {
		dst = newMatrix(nL, nL)
	}
	for e := 0; e < nL; e++ {
		col := dst[e]
		for l := range col {
			col[l] = 0
		}
	}
	for l := 0; l < nL; l++ {
		cl := d.capac[l]
		pl := P[l]
		for e := 0; e < nL; e++ {
			if v := pl[e]; v != 0 {
				dst[e][l] = cl * v
			}
		}
	}
	return dst
}

// topUpdate follows one changed entry of a dense column in its colTop
// buffer, rescanning the column when the buffer asks for it.
func (d *denseFW) topUpdate(e int, l int32, nv float64) {
	if !d.tops[e].update(l, nv, d.topK) {
		d.tops[e].rebuild(d.pcol[e], d.topK)
	}
}

func (d *denseFW) refreshW() {
	nL := d.g.NumLinks()
	if d.topK > 0 {
		for e := range d.tops {
			d.tops[e].rebuild(d.pcol[e], d.topK)
		}
	}
	for i, Wi := range d.ar.W {
		switch {
		case d.knapU != nil:
			u := d.knapU[i]
			for e := range Wi {
				Wi[e], _ = d.tops[e].worstKnap(u)
			}
		case d.arbF != nil && d.arbF[i] < nL:
			F := d.arbF[i]
			for e := range Wi {
				Wi[e] = d.tops[e].worstArb(F)
			}
		default:
			model := d.reqs[i].model
			for e := range Wi {
				Wi[e] = model.WorstLoad(d.pcol[e])
			}
		}
	}
}

func (d *denseFW) rSweep(rPaths [][]graph.LinkID, mu float64) {
	nL := d.g.NumLinks()
	nI := len(d.reqs)
	loads, W := d.ar.loads, d.ar.W
	xDir, diff := d.ar.xDir, d.ar.diff
	rk, live, stamp := d.ar.rk, d.ar.live, d.ar.stampE
	u := d.ar.us[:nI*nL]
	lse := sweepLSE{key: math.NaN(), mu: mu, stamp: stamp, live: live}
	for k := range d.comms {
		path := rPaths[k]
		if path == nil {
			continue
		}
		for e := range xDir {
			xDir[e] = 0
		}
		for _, id := range path {
			xDir[id] = 1
		}
		for e := range rk {
			rk[e] = 0
		}
		d.R[k].Scatter(rk)
		d.stampGen++
		lse.gen = d.stampGen
		nAct := 0
		for e := 0; e < nL; e++ {
			dd := xDir[e] - rk[e]
			diff[e] = dd
			if dd != 0 {
				stamp[e] = lse.gen
				nAct++
			}
		}
		hasDemand := false
		for i := 0; i < nI; i++ {
			live[i] = d.reqs[i].demands[k] != 0
			hasDemand = hasDemand || live[i]
		}
		if nAct == 0 || !hasDemand {
			continue
		}
		eval := func(gamma float64) float64 {
			for i := 0; i < nI; i++ {
				gd := gamma * d.reqs[i].demands[k]
				li, Wi := loads[i], W[i]
				for e := 0; e < nL; e++ {
					u[i*nL+e] = (li[e] + gd*diff[e] + Wi[e]) / d.capac[e]
				}
			}
			return lse.direct(u)
		}
		gamma := ternaryMinSingle(eval, 12)
		if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
			continue
		}
		for i := 0; i < nI; i++ {
			dm := d.reqs[i].demands[k]
			if dm == 0 {
				continue
			}
			li := loads[i]
			for e := 0; e < nL; e++ {
				if diff[e] != 0 {
					li[e] += gamma * dm * diff[e]
				}
			}
		}
		for e := 0; e < nL; e++ {
			rk[e] = (1-gamma)*rk[e] + gamma*xDir[e]
		}
		d.R[k].Gather(rk, path)
	}
}

// stampP stamps protected link l's active cells — those P[l] holds nonzero
// and the path's — with a fresh generation and returns it.
func (d *denseFW) stampP(l int, path []graph.LinkID) int32 {
	d.stampGen++
	gen, stamp := d.stampGen, d.ar.stampE
	for e, v := range d.P[l] {
		if v != 0 {
			stamp[e] = gen
		}
	}
	for _, id := range path {
		stamp[id] = gen
	}
	return gen
}

// pSweepRef is the reference p sweep the sparse pSweep is held to for
// every failure model: each probe of block l recomputes every (requirement,
// link) cell, through the selected kernel's per-block stats or, in the
// generic case, WorstLoad on the column with entry l replaced, and
// evaluates sweepLSE's contract on them directly; an accept rewrites every
// W cell.
func (d *denseFW) pSweepRef(pPaths [][]graph.LinkID, mu float64) {
	nL := d.g.NumLinks()
	nI := len(d.reqs)
	loads, W := d.ar.loads, d.ar.W
	sFm1, aF, xDir := d.ar.sFm1, d.ar.aF, d.ar.xDir
	sS, mSl, sM, mMl := d.ar.grpS, d.ar.grpSl, d.ar.grpM, d.ar.grpMl
	scratchCol := make([]float64, nL)
	u := d.ar.us[:nI*nL]
	lse := sweepLSE{key: math.NaN(), mu: mu, stamp: d.ar.stampE}
	for l := 0; l < nL; l++ {
		path := pPaths[l]
		if path == nil {
			continue
		}
		lse.gen = d.stampP(l, path)
		cl := d.capac[l]
		for e := range xDir {
			xDir[e] = 0
		}
		for _, id := range path {
			xDir[id] = cl
		}
		pl := d.P[l]

		var evalW func(i, e int, x float64) float64
		switch {
		case d.arbF != nil:
			for i := 0; i < nI; i++ {
				F := d.arbF[i]
				sfi, afi := sFm1[i], aF[i]
				for e := 0; e < nL; e++ {
					sfi[e], afi[e] = d.tops[e].stats(int32(l), F)
				}
			}
			evalW = func(i, e int, x float64) float64 {
				if x > aF[i][e] {
					return sFm1[i][e] + x
				}
				return sFm1[i][e] + aF[i][e]
			}
		case d.grp1 != nil:
			for i := 0; i < nI; i++ {
				groupStatsDense(d.grp1[i].SRLGs, d.pcol, graph.LinkID(l), sS[i], mSl[i])
				groupStatsDense(d.grp1[i].MLGs, d.pcol, graph.LinkID(l), sM[i], mMl[i])
			}
			evalW = func(i, e int, x float64) float64 {
				srlg := sS[i][e]
				if v := mSl[i][e] + x; v > srlg {
					srlg = v
				}
				if srlg < 0 {
					srlg = 0
				}
				mlg := sM[i][e]
				if v := mMl[i][e] + x; v > mlg {
					mlg = v
				}
				if mlg < 0 {
					mlg = 0
				}
				return srlg + mlg
			}
		case d.knapU != nil:
			evalW = func(i, e int, x float64) float64 {
				return d.tops[e].worstKnapAt(d.knapU[i], int32(l), x)
			}
		default:
			evalW = func(i, e int, x float64) float64 {
				copy(scratchCol, d.pcol[e])
				scratchCol[l] = x
				return d.reqs[i].model.WorstLoad(scratchCol)
			}
		}

		eval := func(gamma float64) float64 {
			for i := 0; i < nI; i++ {
				for e := 0; e < nL; e++ {
					x := (1-gamma)*d.pcol[e][l] + gamma*xDir[e]
					u[i*nL+e] = (loads[i][e] + evalW(i, e, x)) / d.capac[e]
				}
			}
			return lse.direct(u)
		}
		gamma := ternaryMinSingle(eval, 12)
		if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
			continue
		}
		for e := 0; e < nL; e++ {
			old := d.pcol[e][l]
			nv := (1-gamma)*old + gamma*xDir[e]
			d.pcol[e][l] = nv
			pl[e] = nv / cl
			if d.topK > 0 && nv != old {
				d.topUpdate(e, int32(l), nv)
			}
		}
		if d.topK == 0 && d.grp1 == nil {
			d.refreshW()
			continue
		}
		for i := 0; i < nI; i++ {
			Wi := W[i]
			for e := 0; e < nL; e++ {
				Wi[e] = evalW(i, e, d.pcol[e][l])
			}
		}
	}
}

func (d *denseFW) globalStep(rPaths, pPaths [][]graph.LinkID, mu float64) float64 {
	nL := d.g.NumLinks()
	nT := len(d.reqs) * nL
	loads := d.ar.loads
	for l := 0; l < nL; l++ {
		pathRowDense(d.dirP[l], d.P[l], pPaths[l])
	}
	dirLoads := loads
	if rPaths != nil {
		dirLoads = d.ar.dirLoads
		d.baseLoads(rPaths, dirLoads)
	}
	pcolDir := d.columns(d.dirP, d.pcolDir)
	us := d.ar.us[:nT]
	col := make([]float64, nL)
	eval := func(gamma float64) float64 {
		for t := range us {
			i, e := t/nL, t%nL
			a, b := d.pcol[e], pcolDir[e]
			for l := 0; l < nL; l++ {
				col[l] = (1-gamma)*a[l] + gamma*b[l]
			}
			bl := (1-gamma)*loads[i][e] + gamma*dirLoads[i][e]
			us[t] = (bl + d.reqs[i].model.WorstLoad(col)) / d.capac[e]
		}
		worst := 0.0
		for _, u := range us {
			if u > worst {
				worst = u
			}
		}
		var z float64
		for _, u := range us {
			z += math.Exp((u - worst) / mu)
		}
		return worst + mu*math.Log(z)
	}
	gamma := ternaryMinSingle(eval, 14)
	if gamma <= 1e-9 || eval(gamma) >= eval(0)-1e-15 {
		return 0
	}
	for k := range d.R {
		if rPaths != nil && rPaths[k] != nil {
			d.R[k].MoveToward(gamma, rPaths[k], d.ar.mix)
		} else {
			d.R[k].SelfMix(gamma)
		}
	}
	for l, pl := range d.P {
		dl := d.dirP[l]
		for e := range pl {
			pl[e] = (1-gamma)*pl[e] + gamma*dl[e]
		}
	}
	d.pcol = d.columns(d.P, d.pcol)
	return gamma
}

// pathRowDense fills one direction row: the indicator of path, or a copy of
// the current row cur when the oracle found no path.
func pathRowDense(row, cur []float64, path []graph.LinkID) {
	if path == nil {
		copy(row, cur)
		return
	}
	for e := range row {
		row[e] = 0
	}
	for _, id := range path {
		row[id] = 1
	}
}

func (d *denseFW) pDirections() [][]graph.LinkID {
	nL := d.g.NumLinks()
	for l, row := range d.costP {
		if d.flatSPF {
			for e := range row {
				row[e] = 0
			}
			continue
		}
		for _, e := range d.ar.pPat[l] {
			row[e] = 0
		}
		d.ar.pPatNew[l] = d.ar.pPatNew[l][:0]
	}
	nC := par.NumChunks(nL)
	if len(d.ar.patPairs) < nC {
		d.ar.patPairs = make([][]int32, nC)
	}
	d.pool.ForEach(nC, d.accumulateCostP)
	if !d.flatSPF {
		for c := 0; c < nC; c++ {
			pairs := d.ar.patPairs[c]
			for j := 0; j+1 < len(pairs); j += 2 {
				l, e := pairs[j], pairs[j+1]
				d.ar.pPatNew[l] = append(d.ar.pPatNew[l], e)
			}
		}
	}
	d.pool.ForEach(nL, d.pOraclePath)
	if !d.flatSPF {
		d.ar.pPat, d.ar.pPatNew = d.ar.pPatNew, d.ar.pPat
	}
	return d.ar.pPaths
}

func (d *denseFW) accumulateCostP(c int) {
	nL := d.g.NumLinks()
	lo, hi := par.Chunk(nL, c)
	q, costP := d.ar.q, d.costP
	incremental := !d.flatSPF
	pairs := d.ar.patPairs[c][:0]
	y := make([]float64, nL)
	for e := lo; e < hi; e++ {
		for i := range d.reqs {
			if q[i][e] == 0 {
				continue
			}
			d.reqs[i].model.ActiveSet(d.pcol[e], y)
			w := q[i][e] / d.capac[e]
			for l := 0; l < nL; l++ {
				if y[l] > 0 {
					if incremental && costP[l][e] == 0 {
						pairs = append(pairs, int32(l), int32(e))
					}
					costP[l][e] += w * y[l]
				}
			}
		}
	}
	d.ar.patPairs[c] = pairs
}

func (d *denseFW) pOraclePath(l int) {
	nL := d.g.NumLinks()
	link := d.g.Link(graph.LinkID(l))
	row := d.costP[l]
	if d.flatSPF {
		for id := range row {
			row[id] = row[id] + 1e-12
		}
		sc := d.spfPool.Get()
		spf.SPFTo(d.csr, link.Dst, row, nil, sc)
		d.setPPath(l, link.Src, sc.Next)
		d.spfPool.Put(sc)
		return
	}
	tree := &d.pTrees[l]
	if !tree.Ready() {
		buf := make([]float64, nL)
		for e := 0; e < nL; e++ {
			buf[e] = row[e] + 1e-12
		}
		tree.Full(buf)
		d.setPPath(l, link.Src, tree.Next())
		return
	}
	ids, vals := d.ar.pIDs[l][:0], d.ar.pVals[l][:0]
	oldP, newP := d.ar.pPat[l], d.ar.pPatNew[l]
	oi, ni := 0, 0
	for oi < len(oldP) || ni < len(newP) {
		var e int32
		switch {
		case oi == len(oldP):
			e = newP[ni]
			ni++
		case ni == len(newP):
			e = oldP[oi]
			oi++
		case oldP[oi] < newP[ni]:
			e = oldP[oi]
			oi++
		case oldP[oi] > newP[ni]:
			e = newP[ni]
			ni++
		default:
			e = oldP[oi]
			oi, ni = oi+1, ni+1
		}
		ids = append(ids, e)
		vals = append(vals, row[e]+1e-12)
	}
	d.ar.pIDs[l], d.ar.pVals[l] = ids, vals
	tree.Update(ids, vals, 0.25)
	d.setPPath(l, link.Src, tree.Next())
}

// groupStatsDense is groupStats over dense columns.
func groupStatsDense(groups [][]graph.LinkID, pcol [][]float64, skip graph.LinkID, best, withSkip []float64) {
	negInf := math.Inf(-1)
	for e := range best {
		best[e] = 0
		withSkip[e] = negInf
	}
	for _, grp := range groups {
		contains := false
		for _, l := range grp {
			if l == skip {
				contains = true
				break
			}
		}
		for e := range best {
			col := pcol[e]
			var sum float64
			for _, l := range grp {
				if l == skip || int(l) >= len(col) {
					continue
				}
				if v := col[l]; v > 0 {
					sum += v
				}
			}
			if contains {
				if sum > withSkip[e] {
					withSkip[e] = sum
				}
			} else if sum > best[e] {
				best[e] = sum
			}
		}
	}
}
