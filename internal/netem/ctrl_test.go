package netem

import (
	"testing"

	"repro/internal/graph"
)

func TestFloodReachesAllRoutersQuickly(t *testing.T) {
	g, _, _ := abileneSetup(t, 100)
	plan := planForAbilene(t, 100)
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1})
	em.FailAt(1.0, 0)
	// Detection at 1.01; flood propagation is bounded by the network
	// diameter's serialization + propagation delay (tens of ms).
	em.Run(1.2)
	for v := 0; v < g.NumNodes(); v++ {
		if !fw.ViewKnowsFailed(graph.NodeID(v), 0) {
			t.Fatalf("router %d not notified within 200ms of the failure", v)
		}
	}
	// Both directions announced, flooded once per router per link: the
	// flood stays small.
	if em.CtrlBytes == 0 || em.CtrlBytes > int64(4*g.NumLinks()*g.NumNodes()*64) {
		t.Fatalf("flood bytes = %d", em.CtrlBytes)
	}
}

func TestFloodDeduplicates(t *testing.T) {
	g, _, _ := abileneSetup(t, 100)
	plan := planForAbilene(t, 100)
	fw := NewR3Distributed(plan)
	em := New(Config{G: g, Forwarder: fw, Seed: 1})
	em.FailAt(1.0, 0)
	em.Run(2.0)
	bytesAfterSettle := em.CtrlBytes
	em.Run(3.0)
	if em.CtrlBytes != bytesAfterSettle {
		t.Fatalf("flood kept circulating: %d -> %d bytes", bytesAfterSettle, em.CtrlBytes)
	}
	// Upper bound: each of the 2 directed-link notifications is re-flooded
	// at most once per router onto each of its out-links.
	maxMsgs := int64(2 * g.NumNodes() * 4) // max degree 3, +1 slack
	if em.CtrlBytes > maxMsgs*64 {
		t.Fatalf("flood bytes %d exceed dedup bound %d", em.CtrlBytes, maxMsgs*64)
	}
}

func TestQueueingDelayUnderLoad(t *testing.T) {
	// A congested link adds visible queueing delay to the ping RTT.
	g := graph.New("q")
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddDuplex(a, b, 10, 1, 1) // 10 Mbps, 1ms propagation
	fw := NewOSPFRecon(g)

	baseRTT := func(loadMbps float64) float64 {
		em := New(Config{G: g, Forwarder: fw, Seed: 3})
		if loadMbps > 0 {
			em.AddCBRTraffic(a, b, loadMbps*1e6/8, 2.0)
		}
		em.AddPing(a, b, 0.05, 2.0)
		em.Run(2.5)
		if len(em.RTT) == 0 {
			t.Fatalf("no RTT samples")
		}
		return mean(rttValues(em.RTT))
	}
	idle := baseRTT(0)
	busy := baseRTT(9.5) // 95% utilization
	if busy <= idle {
		t.Fatalf("queueing delay invisible: idle %v, busy %v", idle, busy)
	}
}

func rttValues(samples [][2]float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s[1]
	}
	return out
}
