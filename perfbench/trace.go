package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one call the benchmark made into a layer. Times are
// nanoseconds since the tracer's epoch; Parent is 0 for a root; Req is
// the request id shared by a root and its descendants.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name without its last dot-separated component:
// "query.http.spacetime" → "query.http", "objects.get" → "objects".
func (s span) layer() string {
	if i := strings.LastIndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil
// check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	// fg is the open span of the benchmark's foreground call (a query,
	// a restart): object-store reads made while it is open are calls it
	// caused, and are recorded as its children.
	fg atomic.Pointer[openSpan]

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t *tracer
	s span
}

// begin opens a span named name under parent (nil = a new request).
func (t *tracer) begin(name string, parent *openSpan) *openSpan {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	s := span{ID: id, Req: id, Name: name, Start: time.Since(t.epoch).Nanoseconds()}
	if parent != nil {
		s.Parent, s.Req = parent.s.ID, parent.s.Req
	}
	return &openSpan{t: t, s: s}
}

// beginFG opens a foreground root span.
func (t *tracer) beginFG(name string) *openSpan {
	o := t.begin(name, nil)
	if o != nil {
		t.fg.Store(o)
	}
	return o
}

// foreground is the open foreground span, or nil.
func (t *tracer) foreground() *openSpan {
	if t == nil {
		return nil
	}
	return t.fg.Load()
}

// end closes the span and keeps it.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	o.t.fg.CompareAndSwap(o, nil)
	o.s.End = time.Since(o.t.epoch).Nanoseconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// export writes every span as one JSON object per line, ordered by start.
func (t *tracer) export(path string) error {
	spans := t.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover. Overlapping children are counted
// once, and a child's time outside its parent is not subtracted.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.layer()] += (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}
