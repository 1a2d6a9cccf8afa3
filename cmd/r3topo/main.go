// Command r3topo inspects the built-in evaluation topologies (or a user
// topology file) and their synthetic traffic matrices.
//
// Usage:
//
//	r3topo -net abilene                 # nodes and links
//	r3topo -net usisp -groups          # SRLGs and MLGs
//	r3topo -net sbc -tm -total 5000    # gravity traffic matrix
//	r3topo -file mynet.topo -dump      # parse and re-emit a topology file
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// builtin resolves a built-in topology by name, or nil.
func main() {
	var (
		name   = flag.String("net", "abilene", "topology: abilene|level3|sbc|uunet|generated|generated1k|usisp")
		file   = flag.String("file", "", "load a topology file instead of a built-in (see internal/topo format)")
		dump   = flag.Bool("dump", false, "write the topology in the text format and exit")
		groups = flag.Bool("groups", false, "print SRLGs and MLGs")
		tm     = flag.Bool("tm", false, "print a gravity traffic matrix")
		total  = flag.Float64("total", 1000, "total demand for -tm (Mbps)")
		seed   = flag.Int64("seed", 1, "gravity seed")
	)
	flag.Parse()

	var g *graph.Graph
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		g, err = topo.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		if g, err = topo.ByName(*name); err != nil {
			fmt.Fprintln(os.Stderr, "r3topo:", err)
			os.Exit(2)
		}
	}

	if *dump {
		if err := topo.Format(os.Stdout, g); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Println(g)
	fmt.Printf("total capacity: %.0f Mbps, max degree: %d\n", g.TotalCapacity(), g.MaxDegree())
	for _, l := range g.Links() {
		fmt.Printf("link %3d: %-22s -> %-22s cap %8.0f Mbps, delay %5.1f ms, weight %.2f\n",
			l.ID, g.Node(l.Src), g.Node(l.Dst), l.Capacity, l.Delay, l.Weight)
	}

	if *groups {
		fmt.Printf("\nSRLGs (%d):\n", len(g.SRLGs()))
		for i, grp := range g.SRLGs() {
			fmt.Printf("  srlg %2d: %v\n", i, grp)
		}
		fmt.Printf("MLGs (%d):\n", len(g.MLGs()))
		for i, grp := range g.MLGs() {
			fmt.Printf("  mlg %2d: %v\n", i, grp)
		}
	}

	if *tm {
		m := traffic.Gravity(g, *total, *seed)
		fmt.Printf("\ngravity traffic matrix (total %.0f Mbps):\n", m.Total())
		if err := traffic.FormatMatrix(os.Stdout, m, func(id graph.NodeID) string { return g.Node(id) }); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "r3topo:", err)
	os.Exit(1)
}
