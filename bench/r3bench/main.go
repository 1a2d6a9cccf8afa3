// Command r3bench is the repository's one benchmark: four workloads that
// cover the paths a user of R3 waits on (offline planning, the planner
// daemon, scenario replay and packet emulation), each reporting the same
// five end-to-end numbers, plus a traced run that attributes the time to
// the internal/ layers. bench/README.md says what every number is for.
//
//	r3bench -workload plan-protect-g100 -seed 1 -seconds 24 -trace 0
//	r3bench -check 5
//
// The last line of standard output is one JSON object (see result);
// everything meant for people goes to standard error and to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// result is the line the driver reads: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run leaves in -out for people and for -check: the
// result plus the machine it ran on, the spread behind each median and the
// facts that must repeat exactly between two runs at one seed.
type report struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	MatrixSeed int64   `json:"matrix_seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Quick      bool    `json:"quick,omitempty"`
	Machine    machine `json:"machine"`
	Result     result  `json:"result"`
	// Exact holds digests, counters and flags that depend only on the
	// code and the seed; -check fails when any of them differs.
	Exact map[string]string `json:"exact"`
	// Detail holds quartiles and sample counts behind the metrics.
	Detail   map[string]any `json:"detail"`
	Failures []string       `json:"failures,omitempty"`
}

type options struct {
	workload string
	seed     int64
	// matrixSeed draws the traffic matrices; see demand.
	matrixSeed int64
	seconds    int
	trace      bool
	quick      bool
	out        string
}

func main() {
	var (
		o     options
		trace = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to <out>/trace-<workload>.json")
		check = flag.Int("check", 0, "run two interleaved sets of N >= 3 runs per workload and compare them against the bounds in BENCHMARK.json")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "input seed (what it draws is listed per workload in bench/README.md)")
	flag.Int64Var(&o.matrixSeed, "matrix-seed", 1, "gravity seed of the traffic matrices; every exact value changes with it, so use it to re-check a claimed gain on a second matrix, never inside one comparison")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "measuring time the fixed op counts are sized for")
	flag.BoolVar(&o.quick, "quick", false, "toy sizes for the smoke test; the numbers mean nothing")
	flag.StringVar(&o.out, "out", "bench/out", "directory for reports and traces")
	flag.Parse()
	o.trace = *trace != 0

	if *check != 0 {
		os.Exit(runCheck(*check, o))
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "r3bench: unknown -workload %q (want %s)\n", o.workload, workloadNames())
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "r3bench: -seconds must be at least 1")
		os.Exit(2)
	}
	rep, err := execute(wl, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "r3bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "r3bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and writes its report (and trace) under o.out.
func execute(wl workload, o options) (rep *report, err error) {
	defer func() {
		if p := recover(); p != nil {
			a, ok := p.(abort)
			if !ok {
				panic(p)
			}
			rep, err = nil, fmt.Errorf("%s aborted: %v", o.workload, a.err)
		}
	}()
	r := newRun(o)
	before := stampStart(o.quick)
	if o.trace {
		wl.traced(r)
	} else {
		wl.run(r)
	}
	mach := before.finish(o.quick)
	if o.trace {
		r.m["bench.calib_ms"] = mach.CalibMS
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res, err := r.result(defs, o.trace)
	if err != nil {
		return nil, err
	}
	rep = &report{
		Workload: o.workload, Seed: o.seed, MatrixSeed: o.matrixSeed, Seconds: o.seconds, Trace: o.trace, Quick: o.quick,
		Machine: mach, Result: res, Exact: r.exact, Detail: r.detail, Failures: r.failures,
	}
	printSummary(rep, defs)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	name := "run-" + o.workload + ".json"
	if o.trace {
		name = "traced-" + o.workload + ".json"
		if err := r.tr.writeFile(filepath.Join(o.out, "trace-"+o.workload+".json")); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(filepath.Join(o.out, name), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printSummary writes the human-readable form of a report to stderr.
func printSummary(rep *report, defs []metricDef) {
	w := os.Stderr
	m := rep.Machine
	fmt.Fprintf(w, "r3bench %s seed=%d seconds=%d trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Fprintf(w, "machine: nproc=%d GOMAXPROCS=%d %s commit=%s load1=%.2f->%.2f calib_ms=%.1f->%.1f\n",
		m.NProc, m.GOMAXPROCS, m.GoVersion, m.Commit, m.Load1Start, m.Load1End, m.CalibStartMS, m.CalibEndMS)
	if m.Warning != "" {
		fmt.Fprintln(w, "warning:", m.Warning)
	}
	for _, d := range defs {
		v := rep.Result.Metrics[d.name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v.Value, v.Unit)
	}
	keys := make([]string, 0, len(rep.Detail))
	for k := range rep.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  [%s] %v\n", k, rep.Detail[k])
	}
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}
