package lp_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// perODArcLP builds the per-OD arc formulation of min-MLU: one variable
// per (commodity, link), [R1]-[R3] rows per commodity, one capacity row
// Σ_k d_k f_k(e) <= MLU·c_e and one never-binding kill row per link. On
// Abilene it has 3 081 variables and 1 436 rows, about ten times the rows
// of the per-destination LP the exact solver builds, which makes it the
// larger stress for the factorization.
func perODArcLP(g *graph.Graph, comms []routing.Commodity) *lp.Problem {
	nL := g.NumLinks()
	p := lp.NewProblem()
	mlu := p.AddVariable("MLU", 1)
	v := make([]int, len(comms)*nL)
	for i := range v {
		v[i] = p.AddVariable("", 0)
	}
	slack := 1.0
	for k, c := range comms {
		slack += c.Demand
		var src []lp.Term
		for _, id := range g.Out(c.Src) {
			src = append(src, lp.Term{Var: v[k*nL+int(id)], Coef: 1})
		}
		p.AddConstraint(src, lp.EQ, 1)
		for _, id := range g.In(c.Src) {
			p.AddConstraint([]lp.Term{{Var: v[k*nL+int(id)], Coef: 1}}, lp.EQ, 0)
		}
		for n := 0; n < g.NumNodes(); n++ {
			if node := graph.NodeID(n); node != c.Src && node != c.Dst {
				var terms []lp.Term
				for _, id := range g.In(node) {
					terms = append(terms, lp.Term{Var: v[k*nL+int(id)], Coef: 1})
				}
				for _, id := range g.Out(node) {
					terms = append(terms, lp.Term{Var: v[k*nL+int(id)], Coef: -1})
				}
				p.AddConstraint(terms, lp.EQ, 0)
			}
		}
	}
	for e := 0; e < nL; e++ {
		capRow := []lp.Term{{Var: mlu, Coef: -g.Link(graph.LinkID(e)).Capacity}}
		var kill []lp.Term
		for k, c := range comms {
			capRow = append(capRow, lp.Term{Var: v[k*nL+e], Coef: c.Demand})
			kill = append(kill, lp.Term{Var: v[k*nL+e], Coef: c.Demand})
		}
		p.AddConstraint(capRow, lp.LE, 0)
		p.AddConstraint(kill, lp.LE, slack)
	}
	return p
}

// TestAbileneRefactorsMatchDense holds every basis refactorized during the
// cold solve of Abilene's per-OD arc LP (1 436 rows) against the dense
// oracle: nonsingular for both, FTRAN and BTRAN within 1e-9.
func TestAbileneRefactorsMatchDense(t *testing.T) {
	if testing.Short() {
		t.Skip("a few seconds of dense m×m sweeps")
	}
	g := topo.Abilene()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	comms := routing.ODCommodities(g.NumNodes(), d.At)
	bases := lp.HoldRefactorsToDense(t)
	sol, err := perODArcLP(g, comms).SolveFrom(nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if *bases < 20 {
		t.Fatalf("only %d bases refactorized", *bases)
	}
	t.Logf("%d bases, %d pivots", *bases, sol.Iterations)
}
