package graph

import (
	"math/rand"
	"testing"
)

// TestConnectedAgainstBruteForce cross-checks the strong-connectivity
// predicate against a transitive-closure brute force on random graphs and
// failure sets.
func TestConnectedAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(6)
		g := New("bf")
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(string(rune('a' + i)))
		}
		var all []LinkID
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.4 {
					all = append(all, g.AddLink(ids[i], ids[j], 1, 1, 1))
				}
			}
		}
		var failed LinkSet
		for _, id := range all {
			if rng.Float64() < 0.3 {
				failed.Add(id)
			}
		}

		// Brute force: Floyd-Warshall style closure.
		reach := make([][]bool, n)
		for i := range reach {
			reach[i] = make([]bool, n)
			reach[i][i] = true
		}
		for _, l := range g.Links() {
			if !failed.Contains(l.ID) {
				reach[l.Src][l.Dst] = true
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if reach[i][k] && reach[k][j] {
						reach[i][j] = true
					}
				}
			}
		}
		want := true
		for i := 0; i < n && want; i++ {
			for j := 0; j < n; j++ {
				if !reach[i][j] {
					want = false
					break
				}
			}
		}
		if got := g.Connected(&failed); got != want {
			t.Fatalf("trial %d: Connected = %v, brute force = %v", trial, got, want)
		}
		// bfs agrees with row 0 of the closure.
		seen := reachableFrom(g, ids[0], &failed)
		for j := 0; j < n; j++ {
			if seen[j] != reach[0][j] {
				t.Fatalf("trial %d: reachableFrom[%d] = %v, want %v", trial, j, seen[j], reach[0][j])
			}
		}
	}
}
