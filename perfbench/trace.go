package main

import "time"

// This file is the traced run's span recorder. Spans are recorded by the
// benchmark around its own calls into each module's public functions —
// nothing is added inside the program — and kept in memory until the run
// ends. A span's self time is its duration minus the part its children
// cover; the same holds for its heap-object count.

// span is one recorded call. Spans of one request share req; parent is
// the index of the enclosing span or -1.
type span struct {
	name       string
	req        int
	parent     int
	start, end time.Duration // offsets from the recorder's epoch
	allocs     uint64
}

// recorder collects the spans of one client's requests. It is used by one
// goroutine at a time.
type recorder struct {
	epoch  time.Time
	allocs *allocCounter
	spans  []span
	stack  []int
	req    int

	// counts are per-request quantities observed at the layer boundaries
	// (pairs explored, product states, store hits, ...), summed.
	counts map[string]float64
	// requests counts the requests the recorder saw; wall sums their
	// wall time from beginRequest to endRequest.
	requests int
	reqStart time.Time
	wall     time.Duration
	// beside sums the time of measurements taken beside the requests,
	// outside their wall time (see measureBeside).
	beside time.Duration
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), allocs: newAllocCounter(), counts: map[string]float64{}}
}

// beginRequest starts a new request; its spans share an identifier.
func (r *recorder) beginRequest() {
	r.requests++
	r.req = r.requests
	r.reqStart = time.Now()
}

// endRequest closes the request's wall time.
func (r *recorder) endRequest() { r.wall += time.Since(r.reqStart) }

// measureBeside times fn outside any request and adds its milliseconds to
// the count name. It measures a module function on a request's inputs
// where the program calls it deep inside another module (fsp.Fingerprint
// inside the engine's cache lookup), without attributing that time to
// the request.
func (r *recorder) measureBeside(name string, fn func()) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.beside += d
	r.counts[name] += ms(d)
}

// begin opens a span nested in the innermost open one.
func (r *recorder) begin(name string) {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, req: r.req, parent: parent, allocs: r.allocs.read(), start: time.Since(r.epoch)})
	r.stack = append(r.stack, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	i := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	sp := &r.spans[i]
	sp.end = time.Since(r.epoch)
	sp.allocs = r.allocs.read() - sp.allocs
}

// call records fn as a span named name.
func (r *recorder) call(name string, fn func()) {
	r.begin(name)
	fn()
	r.end()
}

// measured records a span timed elsewhere — by the benchmark's wrapper
// around the server handler, or by the program's own phase timeline — as
// a child of span parent (-1: of the innermost open span), placed at its
// parent's start. It returns the new span's index.
func (r *recorder) measured(parent int, name string, d time.Duration, allocs uint64) int {
	if parent < 0 {
		parent = r.stack[len(r.stack)-1]
	}
	start := r.spans[parent].start
	r.spans = append(r.spans, span{name: name, req: r.req, parent: parent, start: start, end: start + d, allocs: allocs})
	return len(r.spans) - 1
}

func (r *recorder) count(name string, v float64) { r.counts[name] += v }

// layerTotals is the self time and self allocations per span name.
type layerTotals struct {
	self   map[string]time.Duration
	allocs map[string]uint64
}

func (r *recorder) totals() layerTotals {
	t := layerTotals{self: map[string]time.Duration{}, allocs: map[string]uint64{}}
	childTime := make([]time.Duration, len(r.spans))
	childAllocs := make([]uint64, len(r.spans))
	for _, sp := range r.spans {
		if sp.parent >= 0 {
			childTime[sp.parent] += sp.end - sp.start
			childAllocs[sp.parent] += sp.allocs
		}
	}
	for i, sp := range r.spans {
		self := sp.end - sp.start - childTime[i]
		if self < 0 {
			self = 0
		}
		t.self[sp.name] += self
		if sp.allocs > childAllocs[i] {
			t.allocs[sp.name] += sp.allocs - childAllocs[i]
		}
	}
	return t
}
