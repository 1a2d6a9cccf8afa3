package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkJSON mirrors the whole of BENCHMARK.json.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload, untraced and traced, at -quick sizes and
// holds the output to BENCHMARK.json: every declared metric present with
// its unit, none undeclared, and a well-formed span tree.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != refSeconds {
		t.Errorf("run_seconds is %d, the op counts are sized for %d", bm.RunSeconds, refSeconds)
	}
	if len(bm.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json declares %d workloads, r3bench has %d", len(bm.Workloads), len(workloadOrder))
	}
	sameTable(t, "end_to_end", bm.EndToEnd, endToEnd)
	sameTable(t, "per_layer", bm.PerLayer, perLayer)

	for i, name := range workloadOrder {
		if bm.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in r3bench", i, bm.Workloads[i].Name, name)
		}
		for _, trace := range []bool{false, true} {
			out := t.TempDir()
			rep, err := execute(workloads[name], options{workload: name, seed: 1, matrixSeed: 1, seconds: refSeconds, trace: trace, quick: true, out: out})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Result.Correct || rep.Result.Failed != 0 || rep.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, rep.Result.Attempted, rep.Result.Failed, rep.Failures)
			}
			want := bm.EndToEnd
			if trace {
				want = bm.PerLayer
			}
			if len(rep.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(rep.Result.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := rep.Result.Metrics[d.Name]
				if !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v (present %v), want unit %s", name, trace, d.Name, got, ok, d.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", name, d.Name, got.Value)
				}
			}
			if trace {
				checkSpans(t, filepath.Join(out, "trace-"+name+".json"))
			}
		}
	}
}

func sameTable(t *testing.T, what string, want []declared, have []metricDef) {
	t.Helper()
	if len(want) != len(have) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, r3bench has %d", what, len(want), len(have))
		return
	}
	for i := range want {
		if want[i].Name != have[i].name || want[i].Unit != have[i].unit {
			t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), r3bench has %s (%s)", what, i, want[i].Name, want[i].Unit, have[i].name, have[i].unit)
		}
	}
}

// checkSpans holds a written trace to the shape a reader relies on: every
// span closed, its parent recorded before it and still open around it,
// and no negative self time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range tf.Spans {
		if s.ID != i || s.End < s.Start || s.Self < 0 || s.Op < 1 {
			t.Errorf("%s: malformed span %+v", path, s)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Errorf("%s: span %d (%s) has no live parent: %d", path, i, s.Name, s.Parent)
			continue
		}
		p := tf.Spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, i, s.Name, p.ID, p.Name)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which is what the driver computes.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v %v %v, want 1 2 4", q1, q2, q3)
	}
}
