package mcf

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// checkExactReference solves g's exact min-MLU under r3plan's default
// traffic (gravity at 15 % of total capacity, seed 1) and holds the
// optimum to want within 1e-9 relative. These are the references the FW
// solver's excess over the optimum is measured against.
func checkExactReference(t *testing.T, g *graph.Graph, want float64) {
	t.Helper()
	comms := routing.ODCommodities(g.NumNodes(), traffic.Gravity(g, 0.15*g.TotalCapacity(), 1).At)
	res, err := MinMLUExact(g, comms, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MLU-want) > 1e-9*want {
		t.Fatalf("%s: exact MLU %.17g, want %.17g", g.Name, res.MLU, want)
	}
}

// TestExactReferenceOptima pins UUNet's exact optimum (1.704061). The
// generated-100 reference takes most of a minute and lives behind the
// exactref build tag (make exact-ref).
func TestExactReferenceOptima(t *testing.T) {
	if raceEnabled {
		t.Skip("a 3.5 s single-threaded LP solve, minutes under the race detector")
	}
	checkExactReference(t, topo.UUNet(), 1.704060762214382)
}
