package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if reg.Counter("c") != c {
		t.Fatal("same name must return same counter")
	}
	g := reg.Gauge("g")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	f := reg.FloatGauge("f")
	f.Set(1.25)
	if got := f.Value(); got != 1.25 {
		t.Fatalf("float gauge = %v, want 1.25", got)
	}
	reg.GaugeFunc("fn", func() int64 { return 42 })
	if got := reg.Snapshot().Gauges["fn"]; got != 42 {
		t.Fatalf("gauge func = %d, want 42", got)
	}
}

func TestNilRegistryHandsOutNoopHandles(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Add(3)
	if c != nil || c.Value() != 0 {
		t.Fatal("nil registry must return nil no-op counter")
	}
	reg.Gauge("g").Set(1)
	reg.FloatGauge("f").Set(1)
	reg.GaugeFunc("fn", func() int64 { return 1 })
	reg.Histogram("h", ExpBounds(1, 2, 4)).Observe(3)
	reg.Vec("v", 4, nil).Add(0, 1)
	sp := reg.Trace("t").Start("root")
	sp.SetFloat("k", 1)
	sp.Child("c").End()
	sp.End()
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering one name as two kinds")
		}
	}()
	reg := NewRegistry()
	reg.Counter("dual")
	reg.Gauge("dual")
}

func TestHistogramBucketsAndStats(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []int64{10, 100, 1000})
	for _, v := range []int64{1, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 1+10+11+100+5000 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if s.Min != 1 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
	want := []int64{2, 2, 0, 1} // (<=10)=2, (<=100)=2, (<=1000)=0, +Inf=1
	for i, w := range want {
		if s.Buckets[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Buckets[i], w, s.Buckets)
		}
	}
	var total int64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewRegistry().Histogram("h", ExpBounds(1, 2, 16))
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(int64(w*each + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*each {
		t.Fatalf("count = %d, want %d", got, workers*each)
	}
}

func TestExpBoundsStrictlyIncreasing(t *testing.T) {
	b := ExpBounds(1, 1.1, 40)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not increasing at %d: %v", i, b)
		}
	}
	if lb := LinearBounds(5, 10, 4); lb[0] != 5 || lb[3] != 35 {
		t.Fatalf("linear bounds = %v", lb)
	}
}

func TestVecTallies(t *testing.T) {
	reg := NewRegistry()
	v := reg.Vec("links", 4, func(i int) string { return []string{"a", "b", "c", "d"}[i] })
	v.Add(1, 3)
	v.Add(3, 1)
	v.Add(-1, 5) // out of range: ignored
	v.Add(9, 5)  // out of range: ignored
	snap := reg.Snapshot().Vecs["links"]
	if snap["b"] != 3 || snap["d"] != 1 || len(snap) != 2 {
		t.Fatalf("vec snapshot = %v", snap)
	}
}

func TestTraceSpanTree(t *testing.T) {
	reg := NewRegistry()
	tr := reg.Trace("solve")
	root := tr.Start("run")
	e0 := root.Child("epoch")
	e0.SetFloat("mlu", 0.5)
	e0.End()
	e1 := root.Child("epoch")
	inner := e1.Child("global-step")
	inner.End()
	e1.End()
	root.End()

	roots := tr.Snapshot()
	if len(roots) != 1 || roots[0].Name != "run" {
		t.Fatalf("roots = %+v", roots)
	}
	r := roots[0]
	if len(r.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(r.Children))
	}
	if r.Children[0].Attrs[0].Key != "mlu" || r.Children[0].Attrs[0].Value != 0.5 {
		t.Fatalf("attrs = %+v", r.Children[0].Attrs)
	}
	if len(r.Children[1].Children) != 1 || r.Children[1].Children[0].Name != "global-step" {
		t.Fatalf("nested = %+v", r.Children[1])
	}
	if r.DurNS < 0 || r.Children[0].StartNS < r.StartNS {
		t.Fatalf("timestamps out of order: %+v", r)
	}
	for _, c := range r.Children {
		if c.DurNS == 0 {
			t.Fatalf("ended child has zero duration: %+v", c)
		}
	}
}

func TestSnapshotJSONAndText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Add(2)
	reg.FloatGauge("mlu").Set(0.75)
	reg.Histogram("lat", []int64{10}).Observe(3)
	reg.Trace("t").Start("root").End()

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if _, ok := decoded["histograms"]; !ok {
		t.Fatalf("snapshot missing histograms: %s", buf.String())
	}

	buf.Reset()
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	txt := buf.String()
	for _, want := range []string{"counter n 2", "gauge mlu 0.75", "histogram lat count=1", "trace t roots=1"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("text snapshot missing %q:\n%s", want, txt)
		}
	}
}

func TestHistogramEmptySnapshot(t *testing.T) {
	h := NewRegistry().Histogram("h", []int64{1, 2})
	s := h.Snapshot()
	if s.Count != 0 || s.Min != 0 || s.Max != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
	if math.IsNaN(s.Mean()) {
		t.Fatal("mean of empty histogram must be 0, not NaN")
	}
}
