package main

import (
	"context"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is what one request of the closed loop came to.
type outcome struct {
	// ok: the request completed and its verdict matched the oracle.
	ok bool
	// wrong is set when the verdict contradicts the oracle; it names the
	// input and stops the run.
	wrong error
}

// request performs one request for a client and reports its outcome. seq
// is the client's request number, counting from zero.
type request func(seq int) outcome

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	attempted, completed, failed int
	wrong                        error
	elapsed                      time.Duration
	latencies                    []time.Duration // of completed requests, in completion order
	cpu                          time.Duration   // process user+sys
	allocs, allocBytes           uint64
	gcCPU, totalCPU              float64 // runtime/metrics CPU-class seconds
	windows                      []window
}

// window is one stretch of a timed loop: how long it lasted, how many
// requests completed in it and how much process CPU it used.
type window struct {
	wall, cpu time.Duration
	completed int64
}

// windowLen is the length of the windows a timed loop is cut into. The
// time metrics are medians over windows, so a few seconds in which the
// host runs slow for reasons outside the program move them little.
const windowLen = time.Second

// windowMedian returns the median over the loop's full windows of f.
func (lr loopResult) windowMedian(f func(window) float64) float64 {
	var xs []float64
	for _, w := range lr.windows {
		if w.completed > 0 {
			xs = append(xs, f(w))
		}
	}
	if len(xs) == 0 && lr.completed > 0 { // a run shorter than one window
		xs = append(xs, f(window{wall: lr.elapsed, cpu: lr.cpu, completed: int64(lr.completed)}))
	}
	return median(xs)
}

// closedLoop runs clients goroutines for d; each sends its next request
// only after the previous one has returned, as `ccs batch` workers and
// service clients do. A contradiction stops every client after its
// current request.
func closedLoop(clients int, d time.Duration, mk func(client int) request) loopResult {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	type clientResult struct {
		lat, end          []time.Duration
		attempted, failed int
		wrong             error
	}
	results := make([]clientResult, clients)
	reqs := make([]request, clients)
	for c := range reqs {
		reqs[c] = mk(c)
	}
	var done atomic.Int64
	var windows []window
	sampled := make(chan struct{})
	rt0 := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	go func() {
		defer close(sampled)
		t := time.NewTicker(windowLen)
		defer t.Stop()
		lastT, lastCPU, lastN := start, cpu0, int64(0)
		for ctx.Err() == nil {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				if now.After(deadline) {
					return
				}
				c, n := processCPU(), done.Load()
				windows = append(windows, window{wall: now.Sub(lastT), cpu: c - lastCPU, completed: n - lastN})
				lastT, lastCPU, lastN = now, c, n
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			for seq := 0; ctx.Err() == nil && time.Now().Before(deadline); seq++ {
				t0 := time.Now()
				out := reqs[c](seq)
				lat := time.Since(t0)
				r.attempted++
				switch {
				case out.wrong != nil:
					r.wrong = out.wrong
					stop()
				case out.ok:
					r.lat = append(r.lat, lat)
					r.end = append(r.end, time.Since(start))
					done.Add(1)
				default:
					r.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), cpu: processCPU() - cpu0}
	stop()
	<-sampled
	res.windows = windows
	rt1 := readRuntime()
	res.allocs = rt1.allocs - rt0.allocs
	res.allocBytes = rt1.allocBytes - rt0.allocBytes
	res.gcCPU = rt1.gcCPU - rt0.gcCPU
	res.totalCPU = rt1.totalCPU - rt0.totalCPU
	type completion struct{ end, lat time.Duration }
	var all []completion
	for _, r := range results {
		res.attempted += r.attempted
		res.failed += r.failed
		for i := range r.lat {
			all = append(all, completion{r.end[i], r.lat[i]})
		}
		if res.wrong == nil {
			res.wrong = r.wrong
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	for _, c := range all {
		res.latencies = append(res.latencies, c.lat)
	}
	res.completed = len(res.latencies)
	return res
}

// latencyBlock is how many consecutive completions one latency
// percentile is taken over: the p99 of a block has ten samples beyond it.
const latencyBlock = 1000

// latencyPercentile returns the median over consecutive blocks of
// latencyBlock completions of each block's q-quantile, so a stretch in
// which the host runs slow moves one block, not the whole distribution.
// With fewer than one block it falls back to the whole run.
func (lr loopResult) latencyPercentile(q float64) time.Duration {
	blocks := len(lr.latencies) / latencyBlock
	if blocks == 0 {
		return percentile(sorted(lr.latencies), q)
	}
	return time.Duration(median(lr.blockPercentiles(q)))
}

// blockPercentiles returns each full block's q-quantile.
func (lr loopResult) blockPercentiles(q float64) []float64 {
	var xs []float64
	for b := 0; b+latencyBlock <= len(lr.latencies); b += latencyBlock {
		xs = append(xs, float64(percentile(sorted(lr.latencies[b:b+latencyBlock]), q)))
	}
	return xs
}

func sorted(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile returns the nearest-rank q-quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// processCPU is the process's user+sys CPU time so far, GC included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample is a snapshot of the runtime counters the benchmark reads.
type runtimeSample struct {
	allocs, allocBytes, liveBytes uint64
	gcCPU, totalCPU               float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return runtimeSample{
		allocs:     samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		liveBytes:  samples[2].Value.Uint64(),
		gcCPU:      samples[3].Value.Float64(),
		totalCPU:   samples[4].Value.Float64(),
	}
}

// allocCounter reads only the heap object count: the per-span probe of
// the traced run, cheap enough to take around every spanned call.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// liveMiB forces a collection and returns the live heap in MiB: the one
// defined point at which the benchmark reads memory.
func liveMiB() float64 {
	runtime.GC()
	return float64(readRuntime().liveBytes) / (1 << 20)
}
