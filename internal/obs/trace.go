package obs

import (
	"sync"
	"time"
)

// defaultMaxSpans bounds a trace's memory: once reached, Start/Child
// return no-op spans. Large enough for any realistic solver run (a
// 120-epoch FW solve records a few hundred spans).
const defaultMaxSpans = 1 << 16

// Trace records a tree of timed spans with monotonic timestamps: every
// span stores nanosecond offsets from the trace's base instant, measured
// with the runtime's monotonic clock (time.Since), so wall-clock jumps
// cannot reorder or skew spans. A nil *Trace is a no-op and hands out
// no-op Spans.
type Trace struct {
	mu    sync.Mutex
	base  time.Time
	spans []spanRec
}

type spanRec struct {
	name   string
	parent int32 // -1 for roots
	start  int64 // ns since base
	end    int64 // ns since base; 0 while open
	attrs  []Attr
}

// Attr is one float-valued span attribute (MLU, step size, …).
type Attr struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// Span is a handle to one recorded span. The zero Span (and any span
// handed out by a nil *Trace) is a no-op. Spans are values: copying is
// free and no allocation happens on no-op paths.
type Span struct {
	t   *Trace
	idx int32
}

func newTrace() *Trace {
	return &Trace{base: time.Now()}
}

func (t *Trace) startSpan(name string, parent int32) Span {
	if t == nil {
		return Span{}
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= defaultMaxSpans {
		return Span{}
	}
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now})
	return Span{t: t, idx: int32(len(t.spans) - 1)}
}

// Start opens a root span.
func (t *Trace) Start(name string) Span {
	return t.startSpan(name, -1)
}

// Child opens a span nested under s.
func (s Span) Child(name string) Span {
	if s.t == nil {
		return Span{}
	}
	return s.t.startSpan(name, s.idx)
}

// SetFloat attaches a float attribute to the span.
func (s Span) SetFloat(key string, v float64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	rec := &s.t.spans[s.idx]
	rec.attrs = append(rec.attrs, Attr{Key: key, Value: v})
	s.t.mu.Unlock()
}

// End closes the span. Ending an already-ended span keeps the first end.
func (s Span) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.base).Nanoseconds()
	s.t.mu.Lock()
	rec := &s.t.spans[s.idx]
	if rec.end == 0 {
		rec.end = now
	}
	s.t.mu.Unlock()
}

// SpanSnapshot is one span in a trace snapshot, with children nested.
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartNS and DurNS are nanoseconds; DurNS is 0 for still-open spans.
	StartNS  int64          `json:"start_ns"`
	DurNS    int64          `json:"dur_ns"`
	Attrs    []Attr         `json:"attrs,omitempty"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Snapshot renders the recorded spans as a forest of root spans. Nil
// returns nil.
func (t *Trace) Snapshot() []SpanSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	recs := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()

	nodes := make([]SpanSnapshot, len(recs))
	for i, r := range recs {
		dur := int64(0)
		if r.end > 0 {
			dur = r.end - r.start
		}
		nodes[i] = SpanSnapshot{
			Name:    r.name,
			StartNS: r.start,
			DurNS:   dur,
			Attrs:   append([]Attr(nil), r.attrs...),
		}
	}
	// Attach children to parents in reverse index order so each child's
	// own subtree is complete before it is copied into its parent.
	var roots []SpanSnapshot
	for i := len(recs) - 1; i >= 0; i-- {
		p := recs[i].parent
		if p >= 0 {
			nodes[p].Children = append([]SpanSnapshot{nodes[i]}, nodes[p].Children...)
		}
	}
	for i, r := range recs {
		if r.parent < 0 {
			roots = append(roots, nodes[i])
		}
	}
	return roots
}
