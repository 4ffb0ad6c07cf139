package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public functions. Times are nanoseconds since the tracer
// was created.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Unit   int32  `json:"unit"`   // the unit (cell, panel, trial, request) it belongs to; -1 for set-up
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Inner is time spent in nested calls folded into the span instead of
	// recorded as spans of their own (the per-path routing lookups made
	// from inside netsim and flowsim, which are too many to keep).
	Inner int64 `json:"inner_ns,omitempty"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer is the untraced mode: every method is a no-op, so call sites need
// no branches. It is safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, unit int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Unit: unit, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// fold adds ns of nested-call time to span id (see span.Inner) and counts
// the call under name.
func (t *tracer) fold(id int32, name string, ns int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if id >= 0 {
		t.spans[id].Inner += ns
	}
	t.counters[name+".calls"]++
	t.counters[name+".ns"] += float64(ns)
	t.mu.Unlock()
}

// add adds v to counter name.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// snapshot returns copies of the spans and counters recorded so far.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := make(map[string]float64, len(t.counters))
	for k, v := range t.counters {
		c[k] = v
	}
	return append([]span(nil), t.spans...), c
}

// selfTimes returns, for each span name, the summed self time in
// nanoseconds: each span's duration minus the part of its interval covered
// by its child spans (overlapping children are counted once) and minus its
// folded inner time. Open spans are ignored.
func selfTimes(spans []span) map[string]int64 {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[s.ID]) - s.Inner
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// covered returns the length of the union of intervals iv, clipped to
// [lo, hi].
func covered(lo, hi int64, iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
