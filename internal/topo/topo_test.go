package topo

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

// table1 pins the node/link counts from the paper's Table 1.
var table1 = []struct {
	name  string
	build func() *graph.Graph
	nodes int
	links int
}{
	{"Abilene", Abilene, 11, 28},
	{"Level3", Level3, 17, 72},
	{"SBC", SBC, 19, 70},
	{"UUNet", UUNet, 47, 336},
	{"Generated", Generated, 100, 460},
	{"US-ISP", USISP, 20, 102},
}

func TestTable1Counts(t *testing.T) {
	for _, tc := range table1 {
		g := tc.build()
		if g.NumNodes() != tc.nodes {
			t.Errorf("%s: nodes = %d, want %d", tc.name, g.NumNodes(), tc.nodes)
		}
		if g.NumLinks() != tc.links {
			t.Errorf("%s: links = %d, want %d", tc.name, g.NumLinks(), tc.links)
		}
	}
}

func TestAllConnected(t *testing.T) {
	for _, tc := range table1 {
		if !tc.build().Connected(nil) {
			t.Errorf("%s: not strongly connected", tc.name)
		}
	}
}

func TestNoDegreeOneNodes(t *testing.T) {
	// The paper recursively merges degree-1 leaves; our topologies must not
	// have any.
	for _, tc := range table1 {
		g := tc.build()
		for n := 0; n < g.NumNodes(); n++ {
			if d := g.Degree(graph.NodeID(n)); d < 2 {
				t.Errorf("%s: node %s has degree %d", tc.name, g.Node(graph.NodeID(n)), d)
			}
		}
	}
}

func TestAllDuplex(t *testing.T) {
	for _, tc := range table1 {
		g := tc.build()
		for _, l := range g.Links() {
			if l.Reverse < 0 {
				t.Errorf("%s: link %d is simplex", tc.name, l.ID)
				continue
			}
			r := g.Link(l.Reverse)
			if r.Src != l.Dst || r.Dst != l.Src || r.Capacity != l.Capacity {
				t.Errorf("%s: link %d reverse mismatch", tc.name, l.ID)
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, b := UUNet(), UUNet()
	if a.NumLinks() != b.NumLinks() {
		t.Fatalf("non-deterministic link count")
	}
	for i, l := range a.Links() {
		m := b.Link(graph.LinkID(i))
		if l.Src != m.Src || l.Dst != m.Dst || l.Capacity != m.Capacity || l.Delay != m.Delay {
			t.Fatalf("link %d differs between builds: %+v vs %+v", i, l, m)
		}
	}
}

func TestAbileneEmulationLinksExist(t *testing.T) {
	// The Emulab experiment fails Houston-KansasCity, Chicago-Indianapolis
	// and Sunnyvale-Denver; those links must exist.
	g := Abilene()
	pairs := [][2]string{
		{"Houston", "KansasCity"},
		{"Chicago", "Indianapolis"},
		{"Sunnyvale", "Denver"},
	}
	for _, p := range pairs {
		a, ok1 := g.NodeByName(p[0])
		b, ok2 := g.NodeByName(p[1])
		if !ok1 || !ok2 {
			t.Fatalf("missing node in %v", p)
		}
		if _, ok := g.FindLink(a, b); !ok {
			t.Errorf("missing link %s->%s", p[0], p[1])
		}
		if _, ok := g.FindLink(b, a); !ok {
			t.Errorf("missing link %s->%s", p[1], p[0])
		}
	}
}

func TestAbileneCapacityScaling(t *testing.T) {
	g := AbileneWithCapacity(9953)
	for _, l := range g.Links() {
		if l.Capacity != 9953 {
			t.Fatalf("capacity = %v", l.Capacity)
		}
	}
}

func TestUSISPGroups(t *testing.T) {
	g := USISP()
	if len(g.SRLGs()) == 0 {
		t.Fatalf("US-ISP has no SRLGs")
	}
	if len(g.MLGs()) == 0 {
		t.Fatalf("US-ISP has no MLGs")
	}
	for _, grp := range g.SRLGs() {
		if len(grp) == 0 || len(grp)%2 != 0 {
			t.Errorf("SRLG %v should contain whole duplex pairs", grp)
		}
		for _, id := range grp {
			if int(id) >= g.NumLinks() {
				t.Errorf("SRLG references bad link %d", id)
			}
		}
	}
	// Capacity heterogeneity.
	caps := make(map[float64]int)
	for _, l := range g.Links() {
		caps[l.Capacity]++
	}
	if len(caps) < 2 {
		t.Errorf("US-ISP capacities not heterogeneous: %v", caps)
	}
}

func TestGeneratedStructure(t *testing.T) {
	g := Generated()
	// Transit nodes are named with -T, stubs with -S.
	tCount, sCount := 0, 0
	for n := 0; n < g.NumNodes(); n++ {
		name := g.Node(graph.NodeID(n))
		switch name[len("Generated-")] {
		case 'T':
			tCount++
		case 'S':
			sCount++
		}
	}
	if tCount != 10 || sCount != 90 {
		t.Fatalf("transit/stub split = %d/%d, want 10/90", tCount, sCount)
	}
}

func TestAllHelper(t *testing.T) {
	gs := All()
	if len(gs) != 6 {
		t.Fatalf("All() returned %d topologies", len(gs))
	}
}

func TestPositiveDelaysAndCapacities(t *testing.T) {
	for _, tc := range table1 {
		g := tc.build()
		for _, l := range g.Links() {
			if l.Delay <= 0 {
				t.Errorf("%s link %d: delay %v", tc.name, l.ID, l.Delay)
			}
			if l.Capacity <= 0 {
				t.Errorf("%s link %d: capacity %v", tc.name, l.ID, l.Capacity)
			}
		}
	}
}

// TestGenerated1KShape pins the 1000-node stress preset: exact node and
// link counts, connectivity, and absence from the Table 1 catalog (it is
// a scale target, not a paper topology).
func TestGenerated1KShape(t *testing.T) {
	g := Generated1K()
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d, want 1000", g.NumNodes())
	}
	if g.NumLinks() != 5000 {
		t.Fatalf("links = %d, want 5000", g.NumLinks())
	}
	if !g.Connected(nil) {
		t.Fatal("Generated1K not connected")
	}
	for _, tc := range table1 {
		if tc.name == "Generated1K" {
			t.Fatal("Generated1K must stay out of the Table 1 catalog")
		}
	}
}

// TestByNameResolvesEveryBuiltIn holds the commands' -net names to their
// constructors: each name, in lower and upper case, gives the graph its
// constructor builds, and an unknown name is an error.
func TestByNameResolvesEveryBuiltIn(t *testing.T) {
	for name, build := range map[string]func() *graph.Graph{
		"abilene": Abilene, "level3": Level3, "sbc": SBC, "uunet": UUNet,
		"generated": Generated, "generated1k": Generated1K, "usisp": USISP,
	} {
		want := graph.Digest(build())
		for _, n := range []string{name, strings.ToUpper(name)} {
			g, err := ByName(n)
			if err != nil {
				t.Fatalf("ByName(%q): %v", n, err)
			}
			if got := graph.Digest(g); got != want {
				t.Errorf("ByName(%q) digest %016x, %s's constructor %016x", n, got, name, want)
			}
		}
	}
	if g, err := ByName("abilene2"); err == nil {
		t.Errorf("ByName(\"abilene2\") = %s, want an error", g.Name)
	}
}
