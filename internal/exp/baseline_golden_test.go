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
// §5 bit for bit: the FNV digest of every scheme's per-link loads over
// every single failure event plus a seeded sample of 2-event scenarios, on
// Abilene and SBC; the failure-free ECMP rows; and the
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
		"abilene/OSPF+recon":       0xdb67752d9f104ab8,
		"abilene/OSPF+CSPF-detour": 0x95fba49bfd3bc342,
		"abilene/FCP":              0xc7620bc3c9c7468b,
		"abilene/PathSplice":       0x5f1cb73944a0f0fd,
		"abilene/OSPF+opt":         0x5fe3f9f32cc2e07e,
		"abilene/optimal":          0x40439975848426f4,
		"abilene/ecmp-rows":        0x0a05c47bb96cb0c5,
		"sbc/OSPF+recon":           0x7f81bbed79b0e74b,
		"sbc/OSPF+CSPF-detour":     0x63a7f2dc31dbd80d,
		"sbc/FCP":                  0x7dccb007b9038fd0,
		"sbc/PathSplice":           0xeb050a8db549be28,
		"sbc/OSPF+opt":             0x1d987be1cfc436dd,
		"sbc/optimal":              0xf455ba287f028df6,
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
				loads := s.Loads(sc, d)
				hashFloats(h, loads...)
				forward[i] = scenarioDigest(loads)
			}
			got[tg.name+"/"+s.Name()] = h.Sum64()
			for i := len(scenarios) - 1; i >= 0; i-- {
				if scenarioDigest(s.Loads(scenarios[i], d)) != forward[i] {
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

func scenarioDigest(loads []float64) uint64 {
	h := fnv.New64a()
	hashFloats(h, loads...)
	return h.Sum64()
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}
