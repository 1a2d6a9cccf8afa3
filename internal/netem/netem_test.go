package netem

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// R3Forwarder is the centralized MPLS-ff data plane: one control-plane
// view for every router, the reference R3DistributedForwarder's per-router
// views are compared with. It walks the shared decision procedure,
// mplsForward.
type R3Forwarder struct {
	Net *mplsff.Network
}

// Name implements Forwarder.
func (f *R3Forwarder) Name() string { return "MPLS-ff+R3" }

// ApplyFailure implements Forwarder.
func (f *R3Forwarder) ApplyFailure(e graph.LinkID) {
	// Errors cannot occur for first-time failures; OnFailure is
	// idempotent for repeats (both directions may be reported).
	_ = f.Net.OnFailure(e)
}

// Forward implements Forwarder via the shared MPLS-ff decision walk.
func (f *R3Forwarder) Forward(u graph.NodeID, pk *Packet) (graph.LinkID, bool) {
	return mplsForward(f.Net, u, pk)
}

func abileneSetup(t testing.TB, total float64) (*graph.Graph, *traffic.Matrix, *mplsff.Network) {
	t.Helper()
	plan := planForAbilene(t, total)
	g := plan.G
	d := traffic.Gravity(g, total, 42)
	return g, d, mplsff.Build(plan)
}

// planForAbilene memoizes plans per demand total so the emulator tests
// do not repeat precomputation.
var abilenePlans = map[float64]*core.Plan{}

func planForAbilene(t testing.TB, total float64) *core.Plan {
	t.Helper()
	if p, ok := abilenePlans[total]; ok {
		return p
	}
	g := topo.Abilene()
	d := traffic.Gravity(g, total, 42)
	plan, err := core.Precompute(g, d, core.Config{
		Model: core.ArbitraryFailures{F: 1}, Iterations: 80,
	})
	if err != nil {
		t.Fatal(err)
	}
	abilenePlans[total] = plan
	return plan
}

// addTM installs CBR traffic for every OD pair of the matrix (Mbps →
// bytes/sec).
func addTM(em *Emulator, d *traffic.Matrix, stop float64) {
	d.Pairs(func(a, b graph.NodeID, mbps float64) {
		em.AddCBRTraffic(a, b, mbps*1e6/8, stop)
	})
}

func totalDelivered(p *PhaseStats) int64 {
	var s int64
	for _, v := range p.DeliveredBytes {
		s += v
	}
	return s
}

func totalOffered(p *PhaseStats) int64 {
	var s int64
	for _, v := range p.OfferedBytes {
		s += v
	}
	return s
}

func totalDrops(p *PhaseStats) int64 {
	var s int64
	for _, v := range p.DropsByDst {
		s += v
	}
	return s
}

func TestNoFailureLosslessDelivery(t *testing.T) {
	g, d, net := abileneSetup(t, 200)
	em := New(Config{G: g, Forwarder: &R3Forwarder{Net: net}, Seed: 1})
	addTM(em, d, 2.0)
	em.Run(3.0)
	p := em.Phases()[0]
	if len(em.Phases()) != 1 {
		t.Fatalf("phases = %d", len(em.Phases()))
	}
	off, del, dr := totalOffered(p), totalDelivered(p), totalDrops(p)
	if off == 0 {
		t.Fatalf("no traffic generated")
	}
	// Everything offered is delivered or still in flight; drops must be
	// zero at 200 Mbps total on 100 Mbps links with optimized routing.
	if dr != 0 {
		t.Fatalf("drops = %d bytes with uncongested load", dr)
	}
	if float64(del) < 0.95*float64(off) {
		t.Fatalf("delivered %d of %d offered", del, off)
	}
}

func TestLinkBytesMatchCapacityBound(t *testing.T) {
	g, d, net := abileneSetup(t, 200)
	em := New(Config{G: g, Forwarder: &R3Forwarder{Net: net}, Seed: 1})
	addTM(em, d, 2.0)
	em.Run(2.0)
	p := em.Phases()[0]
	for e, b := range p.LinkBytes {
		rate := float64(b) * 8 / p.Duration() / 1e6 // Mbps
		if rate > g.Link(graph.LinkID(e)).Capacity*1.001 {
			t.Fatalf("link %d carried %v Mbps over capacity %v", e, rate, g.Link(graph.LinkID(e)).Capacity)
		}
	}
}

func TestFailureRecoveryR3(t *testing.T) {
	g, d, net := abileneSetup(t, 200)
	em := New(Config{G: g, Forwarder: &R3Forwarder{Net: net}, Seed: 1})
	addTM(em, d, 4.0)
	// Fail Houston->KansasCity at t=1.5s.
	h, _ := g.NodeByName("Houston")
	k, _ := g.NodeByName("KansasCity")
	hk, ok := g.FindLink(h, k)
	if !ok {
		t.Fatalf("no Houston-KansasCity link")
	}
	em.FailAt(1.5, hk)
	em.Run(4.0)

	phases := em.Phases()
	if len(phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(phases))
	}
	// Post-failure phase: loss limited to the short blackhole window.
	p1 := phases[1]
	off, dr := totalOffered(p1), totalDrops(p1)
	if off == 0 {
		t.Fatalf("no post-failure traffic")
	}
	lossRate := float64(dr) / float64(off)
	if lossRate > 0.02 {
		t.Fatalf("post-failure loss rate %v too high for R3 fast reroute", lossRate)
	}
	// The failed link carries nothing after the failure.
	if p1.LinkBytes[hk] != 0 {
		t.Fatalf("failed link carried %d bytes", p1.LinkBytes[hk])
	}
}

func TestOSPFReconSlowerThanR3(t *testing.T) {
	g, d, _ := abileneSetup(t, 200)
	h, _ := g.NodeByName("Houston")
	k, _ := g.NodeByName("KansasCity")
	hk, _ := g.FindLink(h, k)

	run := func(fw Forwarder, converge float64) float64 {
		em := New(Config{G: g, Forwarder: fw, Seed: 1, ConvergeDelay: converge})
		addTM(em, d, 4.0)
		em.FailAt(1.5, hk)
		em.Run(4.0)
		p1 := em.Phases()[1]
		return float64(totalDrops(p1)) / float64(totalOffered(p1))
	}

	_, _, net := abileneSetup(t, 200)
	r3Loss := run(&R3Forwarder{Net: net}, 0)
	ospfLoss := run(NewOSPFRecon(g), 2.0) // 2 s reconvergence
	if ospfLoss <= r3Loss {
		t.Fatalf("OSPF loss %v not worse than R3 %v", ospfLoss, r3Loss)
	}
}

func TestPingRTTIncreasesAfterFailure(t *testing.T) {
	g, d, net := abileneSetup(t, 100)
	em := New(Config{G: g, Forwarder: &R3Forwarder{Net: net}, Seed: 1})
	addTM(em, d, 4.0)
	den, _ := g.NodeByName("Denver")
	la, _ := g.NodeByName("LosAngeles")
	em.AddPing(den, la, 0.05, 4.0)
	// Fail Sunnyvale-Denver: the direct-ish route dies.
	s, _ := g.NodeByName("Sunnyvale")
	sd, ok := g.FindLink(s, den)
	if !ok {
		t.Fatalf("no Sunnyvale-Denver link")
	}
	em.FailAt(2.0, sd)
	em.Run(4.0)

	if len(em.RTT) < 20 {
		t.Fatalf("only %d RTT samples", len(em.RTT))
	}
	var before, after []float64
	for _, s := range em.RTT {
		if s[0] < 1.9 {
			before = append(before, s[1])
		} else if s[0] > 2.2 {
			after = append(after, s[1])
		}
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatalf("missing samples before/after")
	}
	mb, ma := mean(before), mean(after)
	if ma < mb {
		t.Fatalf("RTT decreased after failure: %v -> %v", mb, ma)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestCongestionDropsUnderOverload(t *testing.T) {
	// Offer more than the bottleneck can carry: drops must appear.
	g := graph.New("pair")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 10, 1, 1) // 10 Mbps
	fw := NewOSPFRecon(g)
	em := New(Config{G: g, Forwarder: fw, Seed: 2})
	em.AddCBRTraffic(a, b, 20e6/8, 2.0) // 20 Mbps offered
	em.Run(2.5)
	p := em.Phases()[0]
	if totalDrops(p) == 0 {
		t.Fatalf("no drops despite 2x overload")
	}
	// Delivered rate is close to the link capacity.
	rate := float64(totalDelivered(p)) * 8 / 2.5 / 1e6
	if rate > 10.5 || rate < 7 {
		t.Fatalf("delivered rate %v Mbps, want ~10", rate)
	}
}

func TestPhaseAccounting(t *testing.T) {
	g, d, net := abileneSetup(t, 100)
	em := New(Config{G: g, Forwarder: &R3Forwarder{Net: net}, Seed: 1})
	addTM(em, d, 3.0)
	em.FailAt(1.0, 0)
	em.FailAt(2.0, 4)
	em.Run(3.0)
	ph := em.Phases()
	if len(ph) != 3 {
		t.Fatalf("phases = %d", len(ph))
	}
	if math.Abs(ph[0].End-1.0) > 1e-9 || math.Abs(ph[1].Start-1.0) > 1e-9 {
		t.Fatalf("phase bounds wrong: %v %v", ph[0].End, ph[1].Start)
	}
	if ph[2].End != 3.0 {
		t.Fatalf("last phase end = %v", ph[2].End)
	}
}

func TestOSPFForwarderECMPConsistency(t *testing.T) {
	g := topo.Abilene()
	fw := NewOSPFRecon(g)
	pk := &Packet{Flow: mplsff.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4}, Src: 0, Dst: 5}
	out1, ok1 := fw.Forward(0, pk)
	out2, ok2 := fw.Forward(0, pk)
	if !ok1 || !ok2 || out1 != out2 {
		t.Fatalf("ECMP choice not flow-consistent: %v %v", out1, out2)
	}
}

// TestOSPFReconTablesAcyclic: on a triangle whose a-b weight (1e-12) lies
// inside the equal-cost tolerance, a and b sit at the same distance from d,
// and the reconverged tables used to send a to b and b back to a. Toward
// every destination, before and after the a-d pair fails, every other node
// must have a next hop and the hops must form no cycle. The same holds
// where a-d weighs 1e6 and b has no b-d link, so that 1e6 + 1e-12 == 1e6
// leaves b on a plateau whose one hop is its canonical next link.
func TestOSPFReconTablesAcyclic(t *testing.T) {
	for _, tc := range []struct {
		ad, bd float64
		fail   bool
	}{{1, 1, true}, {1e6, 0, false}} {
		g := graph.New("triangle")
		a := g.AddNode("a")
		b := g.AddNode("b")
		d := g.AddNode("d")
		g.AddDuplex(a, b, 100, 1, 1e-12)
		ad, da := g.AddDuplex(a, d, 100, 1, tc.ad)
		if tc.bd > 0 {
			g.AddDuplex(b, d, 100, 1, tc.bd)
		}
		fw := NewOSPFRecon(g)
		check := func() {
			for dst, table := range fw.next {
				state := make([]int8, len(table)) // 0 new, 1 on the walk, 2 done
				var visit func(u graph.NodeID)
				visit = func(u graph.NodeID) {
					if u == dst || state[u] == 2 {
						return
					}
					if state[u] == 1 {
						t.Fatalf("next-hop cycle toward %d through %d: %v", dst, u, table)
					}
					if len(table[u]) == 0 {
						t.Fatalf("node %d has no next hop toward %d", u, dst)
					}
					state[u] = 1
					for _, id := range table[u] {
						visit(g.Link(id).Dst)
					}
					state[u] = 2
				}
				for u := range table {
					visit(graph.NodeID(u))
				}
			}
		}
		check()
		if tc.fail {
			fw.ApplyFailure(ad)
			fw.ApplyFailure(da)
			check()
		}
	}
}
