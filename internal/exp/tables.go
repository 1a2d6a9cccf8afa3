package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mplsff"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Table1 prints the topology summary (paper Table 1).
func Table1(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: network topologies")
	fmt.Fprintf(w, "%-12s %-14s %8s %8s\n", "Network", "Aggregation", "#Nodes", "#D-Links")
	rows := []struct {
		g    *graph.Graph
		aggr string
	}{
		{topo.Abilene(), "router-level"},
		{topo.Level3(), "PoP-level"},
		{topo.SBC(), "PoP-level"},
		{topo.UUNet(), "PoP-level"},
		{topo.Generated(), "router-level"},
		{topo.USISP(), "PoP-level"}, // the synthetic US-ISP stand-in
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-14s %8d %8d\n", r.g.Name, r.aggr, r.g.NumNodes(), r.g.NumLinks())
	}
}

// Table2Row is the offline precomputation time for one topology across
// failure-protection levels F = 1..6.
type Table2Row struct {
	Network string
	Seconds [6]float64
}

// Table2 measures R3 offline precomputation time (paper Table 2) for all
// six topologies and F = 1..6. The paper's key observation — runtime is
// essentially independent of F because the formulation never enumerates
// failure scenarios — holds by construction here too.
func Table2(o Options) []Table2Row { return Table2For(topo.All(), o) }

// Table2For measures precomputation time on a chosen topology list.
func Table2For(gs []*graph.Graph, o Options) []Table2Row {
	o = o.withDefaults()
	var rows []Table2Row
	for _, g := range gs {
		d := traffic.Gravity(g, 0.15*g.TotalCapacity(), o.Seed+7)
		row := Table2Row{Network: g.Name}
		for f := 1; f <= 6; f++ {
			start := time.Now()
			if _, err := core.Precompute(g, d, core.Config{
				Model: core.ArbitraryFailures{F: f}, Iterations: o.Effort,
				Workers: o.Workers,
			}); err != nil {
				panic(fmt.Sprintf("exp: table2 %s F=%d: %v", g.Name, f, err))
			}
			row.Seconds[f-1] = time.Since(start).Seconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintTable2 writes Table 2 rows.
func PrintTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "# Table 2: R3 offline precomputation time (seconds)")
	fmt.Fprintf(w, "%-12s", "Network")
	for f := 1; f <= 6; f++ {
		fmt.Fprintf(w, "%9s", fmt.Sprintf("F=%d", f))
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s", r.Network)
		for _, s := range r.Seconds {
			fmt.Fprintf(w, "%9.2f", s)
		}
		fmt.Fprintln(w)
	}
}

// Table3Row is the router storage overhead for one topology.
type Table3Row struct {
	Network string
	Storage mplsff.Storage
}

// Table3 measures the MPLS-ff storage overhead (paper Table 3): every
// backbone link is protected, and the worst router's table sizes are
// reported.
func Table3(o Options) []Table3Row { return Table3For(topo.All(), o) }

// Table3For measures storage on a chosen topology list.
func Table3For(gs []*graph.Graph, o Options) []Table3Row {
	o = o.withDefaults()
	var rows []Table3Row
	for _, g := range gs {
		d := traffic.Gravity(g, 0.15*g.TotalCapacity(), o.Seed+7)
		plan := r3Plan(g, d, 1, o)
		net := mplsff.Build(plan)
		rows = append(rows, Table3Row{Network: g.Name, Storage: net.MeasureStorage()})
	}
	return rows
}

// PrintTable3 writes Table 3 rows.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "# Table 3: router storage overhead of R3 (worst router)")
	fmt.Fprintf(w, "%-12s %8s %8s %12s %12s\n", "Network", "#ILM", "#NHLFE", "FIB", "RIB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %8d %8d %12s %12s\n",
			r.Network, r.Storage.TotalILM, r.Storage.TotalNHLFEs,
			fmtBytes(r.Storage.FIBBytes), fmtBytes(r.Storage.RIBBytes))
	}
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
