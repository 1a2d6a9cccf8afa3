package netem

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/obs"
)

// craftLoopingView builds a real MPLS-ff view and then rewires router
// u's tables into a protection-label cycle: the base FIB sends the OD
// pair (u, dst) into failed link e1, whose detour is failed link e2,
// whose detour is e1 again. Every lookup pushes another label, so only
// the depth bound stops the walk. R3's own detours ξ_e avoid e and are
// rescaled from p, so such tables come only from a corrupted or
// adversarial detour, which is exactly why the data plane needs a guard.
func craftLoopingView(t *testing.T) (view *mplsff.Network, u, dst graph.NodeID, e1, e2 graph.LinkID) {
	t.Helper()
	plan := planForRing5(t)
	g := plan.G
	view = mplsff.Build(plan)
	u = graph.NodeID(0)
	outs := g.Out(u)
	if len(outs) < 2 {
		t.Fatalf("node %d has %d out-links, need 2", u, len(outs))
	}
	e1, e2 = outs[0], outs[1]
	st := core.NewState(plan)
	for _, d := range [][2]graph.LinkID{{e1, e2}, {e2, e1}} {
		xi := make([]float64, g.NumLinks())
		xi[d[1]] = 1
		if err := st.FailWith(d[0], xi); err != nil {
			t.Fatal(err)
		}
	}
	view = view.Reprogrammed(st)
	dst = graph.NodeID(3)
	view.SetFIBRow([2]graph.NodeID{u, dst}, []mplsff.NHLFE{{Out: e1, Ratio: 1}})
	return view, u, dst, e1, e2
}

// TestForwardLoopGuardDropsCyclicPlan: a label-push cycle must terminate
// at the MaxStackDepth bound with ok=false (packet dropped), never spin
// or grow the stack unboundedly — for both the centralized forwarder and
// a distributed per-router view.
func TestForwardLoopGuardDropsCyclicPlan(t *testing.T) {
	view, u, dst, _, _ := craftLoopingView(t)

	forwarders := map[string]Forwarder{
		"centralized": &R3Forwarder{Net: view},
		"distributed": &R3DistributedForwarder{views: func() []*mplsff.Network {
			vs := make([]*mplsff.Network, view.G.NumNodes())
			for i := range vs {
				vs[i] = view
			}
			return vs
		}()},
	}
	for name, fw := range forwarders {
		t.Run(name, func(t *testing.T) {
			pk := &Packet{Src: u, Dst: dst, Size: 1500}
			out, ok := fw.Forward(u, pk)
			if ok {
				t.Fatalf("cyclic tables forwarded to link %d instead of dropping", out)
			}
			if len(pk.Stack) > mplsff.MaxStackDepth {
				t.Fatalf("stack grew to %d labels, bound is %d", len(pk.Stack), mplsff.MaxStackDepth)
			}
			if len(pk.Stack) == 0 {
				t.Fatal("walk never entered the label cycle (test rig broken)")
			}
		})
	}
}

// TestForwardLoopGuardEmulatorAccounting: inside the emulator the guard's
// ok=false surfaces as a clean counted drop — bytes land in DropsByDst,
// the obs drop counter advances, nothing is delivered, and no invariant
// fires (the packet never reaches a transmit decision).
func TestForwardLoopGuardEmulatorAccounting(t *testing.T) {
	view, u, dst, _, _ := craftLoopingView(t)
	reg := obs.NewRegistry()
	em := New(Config{G: view.G, Forwarder: &R3Forwarder{Net: view}, Seed: 1, Obs: reg})
	em.AddCBRTraffic(u, dst, 1e6, 0.5)
	em.Run(0.5)

	off, del, dr := sumPhases(em)
	if off == 0 {
		t.Fatal("no traffic offered (test rig broken)")
	}
	if del != 0 {
		t.Fatalf("delivered %d bytes through a label cycle", del)
	}
	if dr != off {
		t.Fatalf("dropped %d of %d offered bytes; the loop guard must drop every packet", dr, off)
	}
	var byDst int64
	for _, p := range em.Phases() {
		byDst += p.DropsByDst[dst]
	}
	if byDst != off {
		t.Fatalf("DropsByDst[%d] = %d, want all %d offered bytes", dst, byDst, off)
	}
	if c := reg.Snapshot().Counters["netem.MPLS-ff+R3.dropped"]; c == 0 {
		t.Error("obs drop counter did not advance")
	}
	if n := len(em.Violations()); n != 0 {
		t.Fatalf("loop-guard drops raised %d invariant violations: %v", n, em.Violations())
	}
}
