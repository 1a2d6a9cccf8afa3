package transition

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mcf"
	"repro/internal/mplsff"
	"repro/internal/routing"
)

// maxGroups is how many failure groups a subset mask can index.
const maxGroups = 64

// Schedule decomposes the activation of a failure set into staged
// rounds. The returned sequence's rounds are numbered 1..k and are meant
// to be applied via mplsff.ApplyRound (directly or through the
// emulator's staged delivery); applying all of them transforms
// mplsff.Build(plan) into one-shot activation of the same failure set.
func Schedule(plan *core.Plan, failures []graph.LinkID, opts Options) (*Sequence, error) {
	opts.defaults()
	g := plan.G
	var seen graph.LinkSet
	for _, e := range failures {
		if int(e) < 0 || int(e) >= g.NumLinks() {
			return nil, fmt.Errorf("transition: link %d out of range", e)
		}
		if seen.Contains(e) {
			return nil, fmt.Errorf("transition: link %d listed twice", e)
		}
		seen.Add(e)
	}
	sc := &scheduler{
		plan:   plan,
		g:      g,
		states: make(map[uint64]*core.State),
		mlus:   make(map[uint64]float64),
		canon:  true,
	}
	sc.groupFailures(failures)
	if len(sc.groups) > maxGroups {
		return nil, fmt.Errorf("transition: %d failure groups, at most %d can be staged", len(sc.groups), maxGroups)
	}
	sc.run = begin(g, opts, "schedule", "round certificate")
	sc.span.SetFloat("failures", float64(len(failures)))

	sc.data = sc.stateOf(0)
	sc.net = mplsff.Build(plan)
	sc.seq.TransientMLU = sc.mluOf(0)
	search(len(sc.groups), opts.maxExactGroups, sc.envelope, sc.activate, sc.greedy)
	sc.reconcile()
	sc.seq.FinalMLU = sc.data.MLU()

	seq := sc.finish(len(sc.groups), "transition.best_effort")
	sc.cert.reg.Counter("transition.swaps").Add(int64(seq.Swaps))
	return seq, nil
}

// scheduler is the failure-activation model: R3 states indexed by group
// subset, plus the walk's position in them.
type scheduler struct {
	*run
	plan *core.Plan
	g    *graph.Graph
	// groups are the activation units: duplex link pairs fail together.
	groups [][]graph.LinkID
	// states/mlus cache the canonical (sorted-order) R3 state per group
	// subset; Theorem 3 makes the subset, not the order, the identity.
	states map[uint64]*core.State
	mlus   map[uint64]float64

	// cum is the subset activated so far and data what the network
	// actually routes after it, including any interim detours; it is
	// read-only (cloned before any mutation). canon reports data ==
	// stateOf(cum) bit for bit. net is data's reference network.
	cum   uint64
	data  *core.State
	canon bool
	net   *mplsff.Network
}

// groupFailures partitions the failure list into duplex groups: when
// both directions of a duplex link are failing they activate atomically
// (a fiber cut takes both), otherwise the directed link is its own
// group. Groups are sorted by their smallest link ID.
func (sc *scheduler) groupFailures(failures []graph.LinkID) {
	var set graph.LinkSet
	for _, e := range failures {
		set.Add(e)
	}
	sorted := append([]graph.LinkID(nil), failures...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var assigned graph.LinkSet
	for _, e := range sorted {
		if assigned.Contains(e) {
			continue
		}
		grp := []graph.LinkID{e}
		assigned.Add(e)
		if rev := sc.g.Link(e).Reverse; rev >= 0 && set.Contains(rev) && !assigned.Contains(rev) {
			grp = append(grp, rev)
			assigned.Add(rev)
		}
		sc.groups = append(sc.groups, grp)
	}
}

// linksOf expands a group bitmask into a sorted directed-link list.
func (sc *scheduler) linksOf(mask uint64) []graph.LinkID {
	var links []graph.LinkID
	for i := range sc.groups {
		if mask&(1<<i) != 0 {
			links = append(links, sc.groups[i]...)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i] < links[j] })
	return links
}

// stateOf returns the canonical R3 state after activating the subset:
// failures applied in sorted link order from the pristine plan. Cached;
// callers must treat the result as read-only (Clone before mutating).
func (sc *scheduler) stateOf(mask uint64) *core.State {
	if st, ok := sc.states[mask]; ok {
		return st
	}
	st := core.NewState(sc.plan)
	if err := st.FailAll(sc.linksOf(mask)...); err != nil {
		// Unreachable: Schedule validated the failure list.
		panic(fmt.Sprintf("transition: canonical state %b: %v", mask, err))
	}
	sc.states[mask] = st
	return st
}

func (sc *scheduler) mluOf(mask uint64) float64 {
	if m, ok := sc.mlus[mask]; ok {
		return m
	}
	m := sc.stateOf(mask).MLU()
	sc.mlus[mask] = m
	return m
}

// envelope bounds the transient MLU of a round that takes the
// configuration from subset cum to cum|add while routers update
// asynchronously: the worst MLU over every intermediate subset applied
// network-wide. (It does not range over per-router version skew; see
// DESIGN.md §10.)
func (sc *scheduler) envelope(cum, add uint64) float64 {
	worst := sc.mluOf(cum)
	for sub := add; ; sub = (sub - 1) & add {
		worst = max(worst, sc.mluOf(cum|sub))
		if sub == 0 {
			break
		}
	}
	return worst
}

// greedy activates one group per round, the one with the smallest
// post-activation MLU, tie-broken by freed headroom (the load currently
// carried by the group's links — taking a loaded link down first frees
// the most capacity for later detours), then by smallest link ID for
// determinism.
func (sc *scheduler) greedy() {
	for full := uint64(1)<<len(sc.groups) - 1; sc.cum != full; {
		loads := sc.stateOf(sc.cum).Loads()
		best := -1
		bestMLU, bestFreed := math.Inf(1), -1.0
		for i := range sc.groups {
			bit := uint64(1) << i
			if sc.cum&bit != 0 {
				continue
			}
			m := sc.mluOf(sc.cum | bit)
			freed := 0.0
			for _, e := range sc.groups[i] {
				freed += loads[e]
			}
			if best < 0 || m < bestMLU-1e-12 ||
				(m <= bestMLU+1e-12 && freed > bestFreed+1e-12) {
				best, bestMLU, bestFreed = i, m, freed
			}
		}
		sc.activate([]int{best})
	}
}

// activate emits the round that takes the groups idx down: the pure R3
// rescaling of the whole batch when that fits, else link by link on the
// live data state with LP interim detours.
func (sc *scheduler) activate(idx []int) {
	var b uint64
	for _, i := range idx {
		b |= 1 << i
	}
	round := &Round{Kind: Activate, Links: sc.linksOf(b)}
	next := sc.cum | b
	env := math.Inf(1)
	if sc.canon {
		env = sc.envelope(sc.cum, b) // ≥ mluOf(next): next is one of the subsets
	}
	if env <= feasTol {
		sc.data = sc.stateOf(next)
		round.StateMLU, round.EnvelopeMLU = sc.mluOf(next), env
	} else {
		sc.detour(round)
	}
	round.LPMLU, round.CertifyErr = sc.cert.certify(sc.plan.Comms, mcf.Options{Alive: sc.data.Failed().Alive()})
	round.Delta = sc.advance(sc.materialize(sc.data))
	sc.emit(round)
	sc.cum = next
}

// detour takes the round's links down one at a time on the live data
// state, giving each link whose pure R3 detour overloads an LP interim
// detour instead. Leaves the data state non-canonical.
func (sc *scheduler) detour(round *Round) {
	cand := sc.data.Clone()
	envLoads := append([]float64(nil), cand.Loads()...)
	preFailed := cand.Failed()
	for i, e := range round.Links {
		pure := cand.Clone()
		if err := pure.Fail(e); err != nil {
			panic(err) // unreachable: validated, not yet failed
		}
		if pure.MLU() <= feasTol {
			cand = pure
		} else if xi, err := sc.interimDetour(cand, e, round.Links[i+1:]); err == nil {
			if err := cand.FailWith(e, xi); err != nil {
				panic(err)
			}
			round.Fallback = true
		} else {
			// The LP cannot help (e.g. partition): best effort.
			cand = pure
		}
		maxInto(envLoads, cand.Loads())
	}
	sc.data, sc.canon = cand, false
	round.StateMLU = cand.MLU()
	round.EnvelopeMLU = sc.utilOver(envLoads, preFailed)
}

// reconcile returns every router to the canonical R3 end state after a
// round fell back to an interim detour or applied failures in a
// non-canonical arithmetic order, so the staged fingerprint equals
// one-shot activation. The round's EnvelopeMLU is the utilization of the
// elementwise max of the two whole states' loads. That is not the
// per-commodity mixing bound DESIGN.md §10 requires of a plan swap, so
// it does not by itself make the round safe under per-router skew
// (ROADMAP item 6).
func (sc *scheduler) reconcile() {
	if sc.canon {
		return
	}
	book := sc.stateOf(sc.cum)
	if delta := sc.advance(sc.materialize(book)); !delta.Empty() {
		envLoads := sc.data.Loads()
		maxInto(envLoads, book.Loads())
		sc.emit(&Round{
			Kind:        Swap,
			Delta:       delta,
			StateMLU:    sc.mluOf(sc.cum),
			EnvelopeMLU: sc.utilOver(envLoads, sc.data.Failed()),
			// Same failure scenario as the round before.
			LPMLU: sc.seq.Rounds[len(sc.seq.Rounds)-1].LPMLU,
		})
	}
	sc.data = book
}

// advance moves the reference network to net and returns the row-level
// delta that takes every router there.
func (sc *scheduler) advance(net *mplsff.Network) *mplsff.Delta {
	delta := mplsff.Diff(sc.net, net)
	sc.net = net
	return delta
}

// interimDetour asks the exact LP for the best detour for link e's
// current load: a single head→tail commodity over surviving links (also
// excluding links about to fail in the same round), with the rest of the
// network's load as background. Returns the detour fractions ξ̃.
func (sc *scheduler) interimDetour(st *core.State, e graph.LinkID, alsoDown []graph.LinkID) ([]float64, error) {
	loads := st.Loads()
	link := sc.g.Link(e)
	bg := append([]float64(nil), loads...)
	bg[e] = 0
	dead := st.Failed()
	dead.Add(e)
	for _, x := range alsoDown {
		dead.Add(x)
	}
	res, err := sc.cert.solve(
		[]routing.Commodity{{Src: link.Src, Dst: link.Dst, Demand: loads[e]}},
		mcf.Options{Alive: dead.Alive(), Background: bg})
	if err != nil {
		return nil, err
	}
	if res.Dropped > 0 {
		return nil, fmt.Errorf("transition: link %d's head is partitioned from its tail", e)
	}
	xi := make([]float64, sc.g.NumLinks())
	res.Rows[0].Scatter(xi)
	xi[e] = 0
	return xi, nil
}

// materialize programs a reference network for a state: a clone of the
// previous one, its ILM reprogrammed from the state. The base FIB keeps
// the pre-failure routing, exactly like OnFailure.
func (sc *scheduler) materialize(st *core.State) *mplsff.Network {
	return sc.net.Reprogrammed(st)
}

// maxInto raises dst to the elementwise max of dst and src.
func maxInto(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// utilOver returns the worst load/capacity ratio over links outside the
// excluded set.
func (sc *scheduler) utilOver(loads []float64, excluded graph.LinkSet) float64 {
	worst := 0.0
	for e, l := range loads {
		if excluded.Contains(graph.LinkID(e)) {
			continue
		}
		if u := l / sc.g.Link(graph.LinkID(e)).Capacity; u > worst {
			worst = u
		}
	}
	return worst
}
