package core

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// delayGraph: a triangle where the direct a->c hop is slow (high delay)
// but short (low weight), so MLU optimization loves it and the delay
// envelope must push traffic off it... or rather the reverse: the
// indirect path is long in delay; a tight envelope keeps traffic direct.
func delayGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := graph.New("delay")
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	// Direct a<->c: fast (5ms). Via b: 50ms total but high capacity.
	g.AddDuplex(a, c, 50, 5, 1)
	g.AddDuplex(a, b, 500, 25, 1)
	g.AddDuplex(b, c, 500, 25, 1)
	return g
}

func TestDelayEnvelopeFW(t *testing.T) {
	g := delayGraph(t)
	d := traffic.NewMatrix(3)
	a, _ := g.NodeByName("a")
	c, _ := g.NodeByName("c")
	d.Set(a, c, 45) // 90% of the direct link: MLU pressure to spill via b
	// Without a delay bound, the solver spills onto the 50ms path.
	free, err := Precompute(g, d, Config{Model: ArbitraryFailures{F: 0}, Iterations: 120})
	if err != nil {
		t.Fatal(err)
	}
	// With a tight delay envelope (1.5x of 5ms = 7.5ms), traffic must stay
	// on the direct link even though that concentrates load.
	bound, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 0}, Iterations: 120, DelayEnvelope: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	delayOf := func(p *Plan) float64 {
		for k, cm := range p.Comms {
			if cm.Src == a && cm.Dst == c {
				return avgPathDelay(denseBase(p), k)
			}
		}
		t.Fatalf("commodity missing")
		return 0
	}
	dist := delayDistTo(g, c)
	minDelay := dist[a]
	if got := delayOf(bound); got > 1.4*minDelay+1e-6 {
		t.Fatalf("delay-bounded plan has delay %v > %v", got, 1.4*minDelay)
	}
	// The unbounded plan should spread (lower MLU, higher delay).
	if free.NormalMLU > bound.NormalMLU+1e-9 {
		t.Fatalf("unbounded plan has worse MLU (%v) than bounded (%v)",
			free.NormalMLU, bound.NormalMLU)
	}
}

func TestDelayEnvelopeFWKeepsRoutingValid(t *testing.T) {
	g := delayGraph(t)
	d := traffic.Gravity(g, 60, 2)
	plan, err := Precompute(g, d, Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 100, DelayEnvelope: 2.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := validFlow(denseBase(plan), 1e-6); err != nil {
		t.Fatalf("base invalid under delay envelope: %v", err)
	}
}

// avgPathDelay is commodity k's mean propagation delay under f: the sum
// of its fractions times link delays, in ms.
func avgPathDelay(f *routing.Flow, k int) float64 {
	var d float64
	for e, v := range f.Frac[k] {
		if v > 0 {
			d += v * f.G.Link(graph.LinkID(e)).Delay
		}
	}
	return d
}
