package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json -check reads: the bounds.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCheck is r3bench -check N: the benchmark measuring itself. It runs
// two interleaved sets of N runs per workload (A B A B ..., each run its
// own process, run i at seed+i in both sets), then one traced pair, and
// holds the two sets to the benchmark's own rules: per cell the medians
// must agree within the bound, and everything that depends only on code
// and seed must be equal. Exit status 1 if any of it fails. The spread
// across seeds, which the driver also bounds, is printed.
func runCheck(n int, o options) int {
	if n < 3 {
		fmt.Fprintln(os.Stderr, "r3bench: -check needs at least 3 runs per set")
		return 2
	}
	var mf manifest
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &mf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "r3bench: -check reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	names := workloadOrder
	if o.workload != "" {
		if _, ok := workloads[o.workload]; !ok {
			fmt.Fprintf(os.Stderr, "r3bench: unknown -workload %q\n", o.workload)
			return 2
		}
		names = []string{o.workload}
	}

	bad := 0
	for _, w := range names {
		sets := [2][]*report{}
		for i := 0; i < n; i++ {
			for s := range sets {
				rep, err := child(o, w, o.seed+int64(i), false, fmt.Sprintf("%c%d", 'A'+s, i))
				if err != nil {
					fmt.Fprintf(os.Stderr, "r3bench: %s run %c%d: %v\n", w, 'A'+s, i, err)
					return 1
				}
				sets[s] = append(sets[s], rep)
			}
			bad += diffExact(w, sets[0][i], sets[1][i])
		}
		fmt.Printf("%s  (%d + %d runs, seeds %d..%d)\n", w, n, n, o.seed, o.seed+int64(n)-1)
		fmt.Printf("  %-10s %12s %8s %12s %8s %8s %7s\n", "metric", "median A", "iqr A", "median B", "iqr B", "diff", "bound")
		for _, e := range mf.EndToEnd {
			a, b := column(sets[0], e.Name), column(sets[1], e.Name)
			ma, mb := median(a), median(b)
			sa, sb := iqrShare(a), iqrShare(b)
			diff := math.Abs(mb-ma) / ma
			verdict := "ok"
			if diff > e.Bound {
				verdict = "EXCEEDS BOUND"
				bad++
			} else if e.Name != "setup_s" && math.Max(sa, sb) > e.Bound {
				// The driver rejects this over ten runs; over N < 10 the
				// quartiles are nearly the extremes, so it is only noted.
				verdict = "ok (spread over bound)"
			}
			fmt.Printf("  %-10s %12.6g %7.2f%% %12.6g %7.2f%% %7.2f%% %6.2f%%  %s\n", e.Name, ma, 100*sa, mb, 100*sb, 100*diff, 100*e.Bound, verdict)
		}

		var traced [2]*report
		for s := range traced {
			rep, err := child(o, w, o.seed, true, fmt.Sprintf("T%c", 'A'+s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "r3bench: %s traced run %c: %v\n", w, 'A'+s, err)
				return 1
			}
			traced[s] = rep
		}
		bad += diffExact(w+" (traced)", traced[0], traced[1])
	}
	if bad > 0 {
		fmt.Printf("check FAILED: %d cells or exact values disagree\n", bad)
		return 1
	}
	fmt.Println("check passed: both sets agree within every bound, and every exact value is equal")
	return 0
}

// child runs one workload in a process of its own, as the driver does,
// and returns its report.
func child(o options, w string, seed int64, trace bool, tag string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(o.out, "check", w, tag)
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", w, "-seed", strconv.FormatInt(seed, 10), "-matrix-seed", strconv.FormatInt(o.matrixSeed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", t, "-out", out)
	if o.quick {
		cmd.Args = append(cmd.Args, "-quick")
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if _, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	name := "run-" + w + ".json"
	if trace {
		name = "traced-" + w + ".json"
	}
	raw, err := os.ReadFile(filepath.Join(out, name))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

func column(reps []*report, name string) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.Result.Metrics[name].Value
	}
	return out
}

// iqrShare is the distance between the first and third quartile as a
// share of the median: the driver's spread.
func iqrShare(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / q2
}

// diffExact compares what must not differ between two runs of one seed:
// the exact values, mlu, and allocation (to 0.1 MB on the planning
// workloads, whose allocation is deterministic at Workers: 1).
func diffExact(label string, a, b *report) int {
	var diffs []string
	for k, va := range a.Exact {
		if vb := b.Exact[k]; va != vb {
			diffs = append(diffs, fmt.Sprintf("%s: %s vs %s", k, va, vb))
		}
	}
	for k := range b.Exact {
		if _, ok := a.Exact[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing vs %s", k, b.Exact[k]))
		}
	}
	if !a.Trace {
		ma, mb := a.Result.Metrics, b.Result.Metrics
		if ma["mlu"].Value != mb["mlu"].Value {
			diffs = append(diffs, fmt.Sprintf("mlu: %v vs %v", ma["mlu"].Value, mb["mlu"].Value))
		}
		if strings.HasPrefix(a.Workload, "plan-") && math.Abs(ma["alloc_mb"].Value-mb["alloc_mb"].Value) > 0.1 {
			diffs = append(diffs, fmt.Sprintf("alloc_mb: %v vs %v", ma["alloc_mb"].Value, mb["alloc_mb"].Value))
		}
	}
	sort.Strings(diffs)
	for _, d := range diffs {
		fmt.Printf("  %s seed %d: %s\n", label, a.Seed, d)
	}
	return len(diffs)
}
