package core

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// VerifyReport is the result of empirically checking a plan's guarantee
// by replaying scenarios through online reconfiguration.
type VerifyReport struct {
	// Scenarios is the number of scenarios checked.
	Scenarios int
	// ByKind counts checked scenarios per scenario kind.
	ByKind map[ScenarioKind]int
	// WorstMLU is the highest post-reconfiguration utilization observed
	// (against effective capacities for degradation scenarios).
	WorstMLU float64
	// Worst is the full scenario achieving WorstMLU.
	Worst Scenario
	// Partitions counts scenarios that stranded demand.
	Partitions int
	// Violations counts scenarios exceeding the plan's MLU bound (only
	// meaningful when the certificate holds; Theorem 1 promises zero).
	Violations int
}

// Verify enumerates every failure set of up to maxFail links (capped at
// maxScenarios; 0 means no cap) and replays online reconfiguration,
// reporting the worst observed utilization. It is the brute-force audit
// of Theorem 1: for a plan with MLU <= 1 the report must show zero
// violations.
func (p *Plan) Verify(maxFail, maxScenarios int) (*VerifyReport, error) {
	if maxFail < 1 {
		return nil, fmt.Errorf("core: maxFail %d < 1", maxFail)
	}
	return p.VerifyScenarios(EnumerateFailures(p.G.NumLinks(), maxFail, maxScenarios))
}

// VerifyScenarios replays each scenario (surge, hard failures, then
// degradations) against a fresh copy of the plan and reports the worst
// observed effective-capacity utilization. It is the generalized audit:
// for scenarios inside the plan's protected envelopes — failure sets
// covered by the model, in-budget degradations, surges folded into the
// demand hull — a plan with MLU <= 1 must show zero violations.
//
// Failure sets share their prefixes: a pure-failure scenario whose
// ascending link IDs extend the failure set of an earlier scenario on the
// current chain (EnumerateFailures' pre-order lists each prefix just
// before its children) starts from a clone of that scenario's state and
// fails only the rest, in the same ascending order ApplyScenario uses, so
// the state — and the report — is the fresh replay's bit for bit. Any
// other scenario starts from NewState.
func (p *Plan) VerifyScenarios(scs []Scenario) (*VerifyReport, error) {
	rep := &VerifyReport{ByKind: make(map[ScenarioKind]int)}
	bound := p.MLU + 1e-6
	// chain[i] holds the state of failing ids[:n] for the i-th prefix
	// length n on the chain; chain[0] is the plan's own state.
	type prefix struct {
		n  int
		st *State
	}
	chain := []prefix{{0, NewState(p)}}
	var ids []graph.LinkID
	for _, sc := range scs {
		rep.Scenarios++
		rep.ByKind[sc.EffectiveKind()]++
		var st *State
		if sc.SurgeScale > 1 || len(sc.Degraded) > 0 {
			st = NewState(p)
			if err := st.ApplyScenario(sc); err != nil {
				return nil, err
			}
		} else {
			next := sc.Failed.IDs()
			// Keep the longest chain entry whose failures lead next.
			for len(chain) > 1 && !prefixOf(ids[:chain[len(chain)-1].n], next) {
				chain = chain[:len(chain)-1]
			}
			top := chain[len(chain)-1]
			st = top.st.Clone()
			if err := st.FailAll(next[top.n:]...); err != nil {
				return nil, err
			}
			ids = next
			chain = append(chain, prefix{len(next), st})
		}
		if st.LostDemand() > 1e-9 {
			rep.Partitions++
		}
		mlu := st.MLU()
		if mlu > rep.WorstMLU {
			rep.WorstMLU = mlu
			rep.Worst = sc
		}
		if mlu > bound {
			rep.Violations++
		}
	}
	return rep, nil
}

// prefixOf reports whether a lists the leading elements of b.
func prefixOf(a, b []graph.LinkID) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}
