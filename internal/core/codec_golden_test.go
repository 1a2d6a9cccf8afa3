package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the codec golden fixtures in testdata/")

// goldenPlans builds the two fixture plans — one per failure-model branch
// of the codec — deterministically (fixed topology, demand seed and serial
// solver), so the checked-in bytes are reproducible.
func goldenPlans(t *testing.T) map[string]*Plan {
	t.Helper()
	plans := make(map[string]*Plan)

	g1 := ring5(t)
	p1, err := Precompute(g1, ring5Demand(g1, 20), Config{
		Model: ArbitraryFailures{F: 1}, Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plans["plan_arbitrary.json"] = p1

	g2 := ring5(t)
	// Group the ring's duplex pairs into SRLGs so the "group" wire branch
	// carries real group lists.
	for _, l := range g2.Links() {
		if l.Reverse > l.ID {
			g2.AddSRLG(l.ID, l.Reverse)
		}
	}
	p2, err := Precompute(g2, ring5Demand(g2, 20), Config{
		Model: ModelFromGraph(g2, 1), Iterations: 40, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plans["plan_group.json"] = p2

	return plans
}

// TestCodecGoldenRoundTrip locks the wire format: each checked-in fixture
// must decode against its topology and re-encode to byte-identical JSON.
// A diff here means the format changed — bump planWireVersion and
// regenerate with -update-golden only if the break is intentional.
func TestCodecGoldenRoundTrip(t *testing.T) {
	plans := goldenPlans(t)
	for name, plan := range plans {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			buf := encodePlan(t, plan)
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(buf))
			continue
		}
		t.Run(name, func(t *testing.T) {
			fixture, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (regenerate with -update-golden): %v", err)
			}
			decoded, err := DecodePlan(bytes.NewReader(fixture), plan.G)
			if err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			if reenc := encodePlan(t, decoded); !bytes.Equal(fixture, reenc) {
				t.Fatalf("fixture is not a codec fixed point:\nfixture:   %d bytes\nre-encode: %d bytes", len(fixture), len(reenc))
			}
			// The fixture must also match today's solver output: plans are
			// deterministic, so drift means either solver or codec changed.
			if !bytes.Equal(fixture, encodePlan(t, plan)) {
				t.Fatal("freshly computed plan no longer matches the checked-in fixture")
			}
		})
	}
}

// TestCodecRejectsMismatchedTopology guards the decode-time binding
// checks: a plan must not attach to a topology with a different shape.
func TestCodecRejectsMismatchedTopology(t *testing.T) {
	plans := goldenPlans(t)
	plan := plans["plan_arbitrary.json"]
	buf := encodePlan(t, plan)
	wrong := mesh6(t)
	if _, err := DecodePlan(bytes.NewReader(buf), wrong); err == nil {
		t.Fatal("decode against mismatched topology succeeded")
	}
	renamed := ring5(t)
	renamed.Name = "other"
	if _, err := DecodePlan(bytes.NewReader(buf), renamed); err == nil {
		t.Fatal("decode against renamed topology succeeded")
	}
	var g *graph.Graph = ring5(t)
	truncated := buf[:len(buf)/2]
	if _, err := DecodePlan(bytes.NewReader(truncated), g); err == nil {
		t.Fatal("decode of truncated plan succeeded")
	}
}
