package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
)

// FuzzStateOracle decodes bytes into a sequence of State operations —
// failures with R3's detour and with made-up ones (NaN, infinite and tiny
// negative entries included), degradations, demand scaling and
// replacement, clones and queries — replays it on State and on the eager
// oracle over the Abilene F=1 plan, and compares everything observable by
// math.Float64bits. Queries come only where the input puts them, so
// reroutes pile up between them and clones are taken with loads pending.
//
// Each operation takes two bytes: an opcode and an argument.
func FuzzStateOracle(f *testing.F) {
	plan := abilenePlan(f)
	nL := plan.G.NumLinks()
	planDemand := demandOfPlan(plan)

	f.Add([]byte{0, 3, 0, 7, 8, 0})
	f.Add([]byte{2, 128, 0, 5, 7, 0, 0, 9, 9, 1, 8, 0, 0, 11, 8, 0})
	f.Add([]byte{1, 0x24, 1, 0xa5, 3, 17, 0, 4, 6, 40, 8, 0})
	f.Add([]byte{5, 0, 0, 2, 4, 0x55, 7, 0, 0, 6, 9, 0, 1, 3, 8, 0})
	f.Add([]byte{6, 3, 0, 1, 7, 0, 9, 1, 0, 2, 2, 64, 8, 0})

	// Detour entries a FailWith argument byte can select.
	detourValues := []float64{1.0 / 3, 0.5, 1, -1e-15, 0, math.NaN(), math.Inf(1), 1e-300}

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 128 {
			ops = ops[:128]
		}
		pool := []statePair{newStatePair(plan)}
		cur := 0
		for i := 0; i+1 < len(ops); i += 2 {
			p := pool[cur]
			arg := ops[i+1]
			// Link arguments run one past each end, so out-of-range links
			// are tried too.
			e := graph.LinkID(int(arg)%(nL+2) - 1)
			var op string
			var got, want error
			switch ops[i] % 10 {
			case 0:
				op = fmt.Sprintf("Fail(%d)", e)
				got, want = p.st.Fail(e), p.or.fail(e)
			case 1:
				// Three detour entries picked by the argument's bits; the
				// failed link is the first in-range link after them.
				xi := make([]float64, nL)
				for j := 0; j < 3; j++ {
					b := int(arg) >> (2 * j)
					xi[(b*7+j)%nL] = detourValues[(b+j)%len(detourValues)]
				}
				fe := graph.LinkID(int(arg) % nL)
				op = fmt.Sprintf("FailWith(%d, %v)", fe, xi)
				got, want = p.st.FailWith(fe, xi), p.or.failWith(fe, xi)
			case 2:
				frac := float64(arg) / 255
				op = fmt.Sprintf("Degrade(%d, %v)", e, frac)
				got, want = p.st.Degrade(e, frac), p.or.degrade(e, frac)
			case 3:
				s := 1 + float64(arg)/64
				op = fmt.Sprintf("ScaleDemands(%v, nil)", s)
				p.st.ScaleDemands(s, nil)
				p.or.scaleDemands(s, nil)
			case 4:
				// The commodities whose index matches the argument's low
				// bits.
				ods := []OD{}
				for k, c := range plan.Base.Comms {
					if k%8 == int(arg)%8 {
						ods = append(ods, OD{c.Src, c.Dst})
					}
				}
				s := 1 + float64(arg>>3)/16
				op = fmt.Sprintf("ScaleDemands(%v, %d ODs)", s, len(ods))
				p.st.ScaleDemands(s, ods)
				p.or.scaleDemands(s, ods)
			case 5:
				op = "SetDemands(plan's)"
				p.st.SetDemands(planDemand)
				p.or.base.SetDemands(planDemand)
			case 6:
				salt := int(arg)
				demand := func(a, b graph.NodeID) float64 {
					return float64((31*int(a) + 17*int(b) + salt) % 5)
				}
				op = fmt.Sprintf("SetDemands(salt %d)", salt)
				p.st.SetDemands(demand)
				p.or.base.SetDemands(demand)
			case 7:
				op = "Clone"
				if len(pool) < 3 {
					pool = append(pool, statePair{p.st.Clone(), p.or.clone()})
				} else {
					pool[int(arg)%len(pool)] = statePair{p.st.Clone(), p.or.clone()}
				}
			case 8:
				p.check(t, fmt.Sprintf("op %d: query of state %d", i/2, cur))
				continue
			default:
				cur = int(arg) % len(pool)
				continue
			}
			sameErr(t, fmt.Sprintf("op %d: %s on state %d", i/2, op, cur), got, want)
		}
		for j, q := range pool {
			q.check(t, fmt.Sprintf("end (checking state %d)", j))
		}
	})
}
