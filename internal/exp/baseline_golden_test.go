package exp

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/graph"
	"repro/internal/protect"
	"repro/internal/routing"
	"repro/internal/spf"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestBaselineSchemesGolden pins the shortest-path baselines of the paper's
// §5 bit for bit: the FNV digest of every scheme's per-link loads and lost
// traffic over every single failure event plus a seeded sample of 2-event
// scenarios, on Abilene and SBC; the failure-free ECMP rows; and the
// fingerprint of the OSPF-reconvergence packet emulation. Nothing else pins
// these numbers, so a change to the shortest-path layer that moves one bit of
// a baseline fails here. The per-scenario optimum (optimal) is the
// denominator of every performance ratio and is pinned beside them.
//
// The same scheme values then evaluate the scenarios again in reverse
// order, and each scenario must get the same bits: the schemes keep caches
// and scratch buffers between calls, and none of their contents may reach
// a result.
func TestBaselineSchemesGolden(t *testing.T) {
	want := map[string]uint64{
		"abilene/OSPF+recon":       0x06b58d5f8d3eee76,
		"abilene/OSPF+CSPF-detour": 0xb69d07393a92896d,
		"abilene/FCP":              0xad7cb230b1e0f249,
		"abilene/PathSplice":       0x7f405b60787798d2,
		"abilene/OSPF+opt":         0x7b8b440d15e8abdd,
		"abilene/optimal":          0xa2bcc2643a5b29b2,
		"abilene/ecmp-rows":        0x0a05c47bb96cb0c5,
		"sbc/OSPF+recon":           0x8639e791e0fc40eb,
		"sbc/OSPF+CSPF-detour":     0x8d76129fd555eeed,
		"sbc/FCP":                  0x9786ad52d0eb92f0,
		"sbc/PathSplice":           0xfafc6e2abef461b6,
		"sbc/OSPF+opt":             0x18edeb78c77d92bd,
		"sbc/optimal":              0x556a871e7ea00a36,
		"sbc/ecmp-rows":            0x77828592671298c8,
		"emulation/OSPF+recon":     0x506d8280810e1674,
	}
	got := map[string]uint64{}
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"abilene", topo.Abilene()},
		{"sbc", topo.SBC()},
	} {
		g := tg.g
		d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
		events := eval.SingleEvents(g)
		scenarios := append(append([]graph.LinkSet(nil), events...), eval.Sample(events, 2, 24, 5)...)
		for _, s := range []protect.Scheme{
			&protect.OSPFRecon{G: g},
			&protect.CSPFDetour{G: g},
			&protect.FCP{G: g},
			&protect.PathSplicing{G: g, Seed: 1},
			&protect.OptDetour{G: g, Iterations: 40},
			&protect.Optimal{G: g, Iterations: 40},
		} {
			h := fnv.New64a()
			forward := make([]uint64, len(scenarios))
			for i, sc := range scenarios {
				loads, lost := s.Loads(sc, d)
				hashFloats(h, loads...)
				hashFloats(h, lost)
				forward[i] = scenarioDigest(loads, lost)
			}
			got[tg.name+"/"+s.Name()] = h.Sum64()
			for i := len(scenarios) - 1; i >= 0; i-- {
				if loads, lost := s.Loads(scenarios[i], d); scenarioDigest(loads, lost) != forward[i] {
					t.Errorf("%s/%s: scenario %d evaluated backwards differs from forwards", tg.name, s.Name(), i)
				}
			}
		}
		h := fnv.New64a()
		f := spf.ECMPFlow(g, routing.ODCommodities(g.NumNodes(), d.At), nil, spf.WeightCost(g))
		for _, row := range f.Frac {
			hashFloats(h, row...)
		}
		got[tg.name+"/ecmp-rows"] = h.Sum64()
	}
	r := RunEmulation("OSPF+recon", EmulationConfig{PhaseSeconds: 2, Seed: 1})
	h := fnv.New64a()
	var buf []byte
	for _, p := range r.Phases {
		buf = p.AppendCanonical(buf[:0])
		h.Write(buf)
	}
	for _, s := range r.RTT {
		hashFloats(h, s[0], s[1])
	}
	got["emulation/OSPF+recon"] = h.Sum64()

	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %#016x, pinned %#016x", name, got[name], w)
		}
	}
}

func scenarioDigest(loads []float64, lost float64) uint64 {
	h := fnv.New64a()
	hashFloats(h, loads...)
	hashFloats(h, lost)
	return h.Sum64()
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
