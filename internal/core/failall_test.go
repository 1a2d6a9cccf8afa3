package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
)

// TestFailAllAllOrNothing is the regression test for the partial-failure
// bug: a mid-list error (here a duplicate of an earlier entry) used to
// leave the earlier failures applied. FailAll must validate the whole
// list first and leave the state untouched on any error.
func TestFailAllAllOrNothing(t *testing.T) {
	cases := []struct {
		name  string
		links []graph.LinkID
		want  string
	}{
		{"duplicate-in-list", []graph.LinkID{1, 2, 1}, "listed twice"},
		{"already-failed", []graph.LinkID{2, 0}, "already failed"},
		{"out-of-range", []graph.LinkID{1, 99}, "out of range"},
		{"negative", []graph.LinkID{1, graph.LinkID(-1)}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewState(examplePlan(t))
			if err := st.Fail(0); err != nil { // pre-existing failure for the already-failed case
				t.Fatal(err)
			}
			pristine := st.Clone()

			err := st.FailAll(tc.links...)
			if err == nil {
				t.Fatalf("FailAll(%v) succeeded, want error", tc.links)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("FailAll(%v) error %q, want it to mention %q", tc.links, err, tc.want)
			}
			if !st.Failed().Equal(pristine.Failed()) {
				t.Fatalf("failed set changed on error: %v -> %v", pristine.Failed(), st.Failed())
			}
			if !st.BaseEquals(pristine, 0) || !st.ProtEquals(pristine, 0) {
				t.Fatal("base or protection routing changed despite the FailAll error")
			}
		})
	}
}

// TestFailAllSuccessMatchesSequentialFail: the all-or-nothing validation
// must not change the semantics of a valid list.
func TestFailAllSuccessMatchesSequentialFail(t *testing.T) {
	a := NewState(examplePlan(t))
	if err := a.FailAll(0, 2); err != nil {
		t.Fatal(err)
	}
	b := NewState(examplePlan(t))
	if err := b.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Fail(2); err != nil {
		t.Fatal(err)
	}
	if !a.Failed().Equal(b.Failed()) || !a.BaseEquals(b, 0) || !a.ProtEquals(b, 0) {
		t.Fatal("FailAll(0,2) differs from Fail(0); Fail(2)")
	}
}

// TestCloneIsolation: mutating a clone leaves the original untouched and
// vice versa.
func TestCloneIsolation(t *testing.T) {
	st := NewState(examplePlan(t))
	if err := st.Fail(0); err != nil {
		t.Fatal(err)
	}
	cl := st.Clone()
	if !cl.Failed().Equal(st.Failed()) || !cl.BaseEquals(st, 0) || !cl.ProtEquals(st, 0) {
		t.Fatal("clone does not match its source")
	}
	if err := cl.Fail(1); err != nil {
		t.Fatal(err)
	}
	if st.Failed().Contains(1) {
		t.Fatal("failing a link on the clone leaked into the original")
	}
	cl.Detour(0)[2] = 99
	if st.Detour(0)[2] == 99 {
		t.Fatal("clone shares detour storage with the original")
	}

	// And the other way round: a clone taken now must not see what the
	// original does next, although both started from the same rows.
	snap := st.Clone()
	want := st.Clone()
	if err := st.Fail(2); err != nil {
		t.Fatal(err)
	}
	if snap.Failed().Contains(2) || !snap.BaseEquals(want, 0) || !snap.ProtEquals(want, 0) {
		t.Fatal("failing a link on the original leaked into its clone")
	}
}

// TestFailWithCustomDetour: FailWith applies updates (9)/(10) with the
// caller's ξ, and ComputeDetour+FailWith is exactly Fail.
func TestFailWithCustomDetour(t *testing.T) {
	viaFail := NewState(examplePlan(t))
	if err := viaFail.Fail(0); err != nil {
		t.Fatal(err)
	}
	viaWith := NewState(examplePlan(t))
	xi := viaWith.ComputeDetour(0)
	if err := viaWith.FailWith(0, xi); err != nil {
		t.Fatal(err)
	}
	if !viaFail.BaseEquals(viaWith, 0) || !viaFail.ProtEquals(viaWith, 0) {
		t.Fatal("ComputeDetour+FailWith differs from Fail")
	}

	// A custom detour (all of e1's traffic via e4) shifts base load there.
	// The plan is edited before NewState: a State reads the plan's rows
	// in place.
	plan := examplePlan(t)
	plan.Base[0] = routing.SparseRow{Idx: []int32{0}, Val: []float64{1}} // route the commodity over e1
	plan.Comms[0].Demand = 10
	st := NewState(plan)
	custom := []float64{0, 0, 0, 1}
	if err := st.FailWith(0, custom); err != nil {
		t.Fatal(err)
	}
	loads := st.Loads()
	if loads[0] != 0 || loads[3] != 10 {
		t.Fatalf("custom detour mis-applied: loads = %v", loads)
	}

	// Invalid detours are rejected before any mutation.
	st2 := NewState(examplePlan(t))
	if err := st2.FailWith(0, []float64{1, 0, 0, 0}); err == nil {
		t.Fatal("detour through the failed link itself was accepted")
	}
	if err := st2.FailWith(0, []float64{0, 1}); err == nil {
		t.Fatal("short detour vector was accepted")
	}
	if st2.Failed().Len() != 0 {
		t.Fatal("rejected FailWith still marked the link failed")
	}
}
