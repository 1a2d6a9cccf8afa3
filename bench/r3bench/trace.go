package main

import (
	"time"
)

// span is one call into a layer's public function, recorded from the
// benchmark's side of the boundary. Times are nanoseconds since the tracer
// started; Parent is the ID of the enclosing span (-1 at the root); Op
// groups the spans of one operation.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End-Start minus the time covered by child spans; filled in
	// when the trace is written.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. It serves one
// goroutine: the open spans form a stack, and a new span's parent is the
// top of it. A nil *tracer records nothing, so op code calls it
// unconditionally and the untraced run pays a nil check.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	nextO int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens a root span for a new operation and returns its closer.
func (t *tracer) op(name string) func() {
	if t == nil {
		return func() {}
	}
	t.nextO++
	return t.begin(name, t.nextO)
}

// do records fn as a child of the innermost open span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	var end func()
	if len(t.open) > 0 {
		end = t.begin(name, t.spans[t.open[len(t.open)-1]].Op)
	} else {
		end = t.op(name) // a call outside any operation is one of its own
	}
	fn()
	end()
}

func (t *tracer) begin(name string, op int) func() {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.open = t.open[:len(t.open)-1]
	}
}

// finish computes self times. Children never overlap one another (one
// goroutine, one stack), so a span's self time is its duration minus the
// sum of its direct children's.
func (t *tracer) finish() []span {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
	return t.spans
}

func (t *tracer) writeFile(path string) error {
	return writeJSON(path, map[string]any{"spans": t.finish()})
}

// meanMS is the mean duration in milliseconds of the spans called name
// recorded since mark (a value of len(t.spans) taken earlier); 0 if none.
func (t *tracer) meanMS(name string, mark int) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans[mark:] {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / 1e6 / float64(n)
}

func (t *tracer) mark() int { return len(t.spans) }
