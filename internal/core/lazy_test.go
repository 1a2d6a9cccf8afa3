package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/mplsff"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestStateIndexIsLazy: a plan's base index and protection columns are
// built by the first load query and the first reroute, not by the codec,
// NewState, Clone, ProtRow or the reads mplsff.Build makes, so a plan
// nobody fails or queries never pays for them.
func TestStateIndexIsLazy(t *testing.T) {
	g := topo.Abilene()
	d := traffic.Gravity(g, 0.15*g.TotalCapacity(), 1)
	src, err := core.Precompute(g, d, core.Config{Model: core.ArbitraryFailures{F: 1}, Iterations: 40})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := src.EncodeBytes()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.DecodePlan(bytes.NewReader(wire), g)
	if err != nil {
		t.Fatal(err)
	}
	built := func(after string, base, prot bool) {
		t.Helper()
		if b, p := core.IndexesBuilt(plan); b != base || p != prot {
			t.Fatalf("after %s: base index built %v, protection columns built %v; want %v, %v", after, b, p, base, prot)
		}
	}
	built("DecodePlan", false, false)
	if _, err := plan.EncodeBytes(); err != nil {
		t.Fatal(err)
	}
	st := core.NewState(plan)
	_ = st.Clone().Detour(0)
	_ = st.ProtRow(0, routing.SparseRow{})
	mplsff.Build(plan)
	built("EncodeBytes, NewState, Clone, ProtRow and mplsff.Build", false, false)
	st.MLU()
	built("a load query", true, false)
	if err := st.Fail(0); err != nil {
		t.Fatal(err)
	}
	built("a failure", true, true)
}
