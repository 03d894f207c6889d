package main

import (
	"sort"
	"strings"
	"time"

	"ccs"
)

// This file turns a traced run into per-layer metrics. The run
// alternates three executors over traceRounds rounds, one client each so
// that the process-wide heap counters read around a span belong to that
// span alone:
//
//   - untraced: the public entry point, as in the end-to-end run;
//   - spanned: the same stream through the workload's span-recording
//     executor, which calls each module's public functions itself;
//   - phased: the public entry point with the program's own phase
//     timeline (Report.Trace) on, printed beside the spans as a
//     cross-check.
//
// Alternating keeps a drift in host speed out of the tracing overhead.
// "_ms" metrics are mean self time per request of the spanned calls,
// "_allocs" heap objects per request, and counts are per request.

const traceRounds = 3

// add folds another loop's totals into lr.
func (lr *loopResult) add(o loopResult) {
	lr.attempted += o.attempted
	lr.completed += o.completed
	lr.failed += o.failed
	lr.elapsed += o.elapsed
	lr.gcCPU += o.gcCPU
	lr.totalCPU += o.totalCPU
	if lr.wrong == nil {
		lr.wrong = o.wrong
	}
}

// phaseNames maps the program's Report.Trace phases onto the module spans
// the benchmark records.
var phaseNames = map[string]string{
	"parse":       "fsp.parse",
	"vet":         "vet",
	"quotient":    "engine.quotient",
	"saturate":    "engine.saturate",
	"solve":       "engine.solve",
	"compose":     "compose",
	"otf-explore": "otf",
}

// derivedTotal is the engine's count of artifacts derived fresh, summed
// over artifact kinds, read from the program's metrics registry.
func derivedTotal() int64 {
	v := ccs.MetricsRegistry().CounterVec("ccs_engine_artifacts_derived_total",
		"Artifacts computed fresh (every cache tier missed), by kind.", "kind")
	var n int64
	for _, kind := range []string{"closure", "index", "saturated", "strong", "weak", "cong"} {
		n += v.With(kind).Value()
	}
	return n
}

func perLayer(w workload, d time.Duration) ([]metric, result, []span, error) {
	part := d / (3 * traceRounds)
	rec := newRecorder()
	spanned := w.spanned(0, rec) // may warm the executor's own caches, before counting
	ph := map[string]time.Duration{}
	var a, b, c loopResult
	var derived int64
	for round := 0; round < traceRounds; round++ {
		a.add(closedLoop(1, part, w.client))
		derived0 := derivedTotal()
		b.add(closedLoop(1, part, func(int) request { return spanned }))
		derived += derivedTotal() - derived0
		c.add(closedLoop(1, part, func(id int) request { return w.phased(id, ph) }))
	}
	res := result{Attempted: a.attempted + b.attempted + c.attempted, Failed: a.failed + b.failed + c.failed}
	for _, lr := range []loopResult{a, b, c} {
		if lr.wrong != nil {
			return nil, res, nil, lr.wrong
		}
	}

	n := max(rec.requests, 1)
	t := rec.totals()
	perReq := func(x float64) float64 { return x / float64(n) }
	selfMS := func(name string) float64 { return perReq(ms(t.self[name])) }
	allocs := func(name string) float64 { return perReq(float64(t.allocs[name])) }
	cnt := func(name string) float64 { return perReq(rec.counts[name]) }
	share := func(num, den string) float64 {
		if rec.counts[den] == 0 {
			return 0
		}
		return rec.counts[num] / rec.counts[den]
	}
	var covered time.Duration
	for _, self := range t.self {
		covered += self
	}
	coverage := 0.0
	if rec.wall > 0 {
		coverage = float64(covered) / float64(rec.wall)
	}
	overhead := 0.0
	if spannedS := (b.elapsed - rec.beside).Seconds(); spannedS > 0 && a.completed > 0 {
		overhead = (float64(a.completed) / a.elapsed.Seconds()) / (float64(b.completed) / spannedS)
	}
	gcShare := 0.0
	if a.totalCPU > 0 {
		gcShare = a.gcCPU / a.totalCPU
	}

	out := []metric{
		{"fsp.parse_ms", selfMS("fsp.parse"), "ms", n},
		{"fsp.parse_allocs", allocs("fsp.parse"), "count", n},
		{"fsp.fingerprint_ms", cnt("fsp.fingerprint_ms"), "ms", n},
		{"engine.quotient_ms", selfMS("engine.quotient"), "ms", n},
		{"engine.quotient_allocs", allocs("engine.quotient"), "count", n},
		{"engine.saturate_ms", selfMS("engine.saturate"), "ms", n},
		{"engine.saturate_allocs", allocs("engine.saturate"), "count", n},
		{"engine.solve_ms", selfMS("engine.solve"), "ms", n},
		{"engine.derived_per_req", perReq(float64(derived)), "count", n},
		{"engine.records", cnt("engine.records"), "count", n},
		{"vet.ms", selfMS("vet"), "ms", n},
		{"compose.ms", selfMS("compose"), "ms", n},
		{"compose.states", cnt("compose.states"), "count", n},
		{"compose.transitions", cnt("compose.transitions"), "count", n},
		{"otf.ms", selfMS("otf"), "ms", n},
		{"otf.pairs", cnt("otf.pairs"), "count", n},
		{"otf.explored", cnt("otf.explored"), "count", n},
		{"otf.explored_share", share("otf.explored", "otf.pairs"), "ratio", n},
		{"otf.steals", cnt("otf.steals"), "count", n},
		{"otf.utilization", share("otf.utilization", "otf.games"), "ratio", n},
		{"otf.fallback_share", share("otf.fallbacks", "otf.requests"), "ratio", n},
		{"server.handler_ms", selfMS("server.handler"), "ms", n},
		{"server.http_ms", selfMS("server.http"), "ms", n},
		{"server.rejected", cnt("server.rejected"), "count", n},
		{"store.hits", cnt("store.hits"), "count", n},
		{"store.misses", cnt("store.misses"), "count", n},
		{"store.writes", cnt("store.writes"), "count", n},
		{"store.evictions", cnt("store.evictions"), "count", n},
		{"store.hit_share", share("store.hits", "store.lookups"), "ratio", n},
		{"runtime.gc_cpu_share", gcShare, "ratio", a.completed},
		{"trace.coverage", coverage, "ratio", n},
		{"trace.overhead", overhead, "ratio", n},
	}
	for _, phase := range sortedKeys(phaseNames) {
		name := "phase." + strings.ReplaceAll(phase, "-", "_") + "_ms"
		v := 0.0
		if c.completed > 0 {
			v = ms(ph[phase]) / float64(c.completed)
		}
		out = append(out, metric{name, v, "ms", c.completed})
	}
	return out, res, rec.spans, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
