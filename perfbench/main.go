// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It generates one of three seeded workloads, drives it through the
// library's public entry points — ccs.Checker.Do for process pairs and
// networks, internal/server's Handler over loopback HTTP for the service —
// checks every verdict against an answer known from how the input was
// built, and prints one JSON result line last on standard output:
//
//	bash perfbench/run.sh --workload pair-cold --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root. Each workload runs as a closed loop of
// one client per CPU in one process. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it runs the
// same stream three ways — untraced, through a span-recording executor
// that calls each module's public functions itself, and through the
// public entry point with the program's own phase timeline — and reports
// per-layer metrics. BENCHMARK.json at the repository root lists both
// metric sets and why each workload was chosen.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workload is one seeded input set together with the program state it
// runs against.
type workload interface {
	// describe returns the input characteristics, one "key=value" line
	// each.
	describe() []string
	// setup builds the program-side state from scratch: cache and store
	// warm-up. It returns how long the program-side part took, benchmark
	// housekeeping excluded; it is repeated and the last state serves the
	// run.
	setup() (time.Duration, error)
	// client returns one client's request function through the public
	// entry point.
	client(id int) request
	// spanned returns the same stream through the span-recording
	// executor.
	spanned(id int, rec *recorder) request
	// phased returns the same stream through the public entry point with
	// the program's phase timeline on, summing phase durations into ph.
	phased(id int, ph map[string]time.Duration) request
	// check verifies the working set stayed bounded during the last
	// timed loop.
	check() error
	// close releases the program-side state.
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"pair-cold", "network", "serve"}

func newWorkload(name string, seed int64, clients int) (workload, error) {
	switch name {
	case "pair-cold":
		return newPairCold(seed, clients), nil
	case "network":
		return newNetworkWorkload(seed), nil
	case "serve":
		return newServe(seed, clients)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// setupRuns is how many times set-up is repeated; setup_s is the median.
const setupRuns = 5

// metric is one reported figure.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		if !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		os.Exit(1)
	}
}

// errIncorrect reports a run whose result line says "correct": false.
var errIncorrect = errors.New("run failed its checks")

// result is the last line of standard output.
type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricPayload `json:"metrics"`
}

type metricPayload struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// recordDir holds one JSON record per run.
var recordDir = filepath.Join(".bench_build", "perfbench-results")

func run(name string, seed int64, seconds, trace int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1, --trace 0|1")
	}
	clients := runtime.NumCPU()
	meta := runMeta(name, seed, seconds, trace, clients)
	for _, kv := range meta {
		fmt.Printf("meta %s=%s\n", kv[0], kv[1])
	}
	genStart := time.Now()
	w, err := newWorkload(name, seed, clients)
	if err != nil {
		return err
	}
	defer w.close()
	inputs := append(w.describe(), fmt.Sprintf("generate_s=%.3f", time.Since(genStart).Seconds()))
	for _, line := range inputs {
		fmt.Printf("input %s\n", line)
	}
	inputsMiB := liveMiB()
	fmt.Printf("info inputs_live_mib=%.2f\n", inputsMiB)

	runs := setupRuns
	if trace == 1 {
		runs = 1
	}
	var setups []float64
	for i := 0; i < runs; i++ {
		d, err := w.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("info setup_runs_s=%s\n", strings.Trim(fmt.Sprintf("%.4f", setups), "[]"))
	// retained_mb is the program's share of the live heap: the encoded
	// inputs, held since generation, are taken out.
	setupMiB := liveMiB()
	fmt.Printf("info setup_live_mib=%.2f\n", setupMiB)
	retained := setupMiB - inputsMiB

	d := time.Duration(seconds) * time.Second
	var figures []metric
	var res result
	var spans []span
	if trace == 0 {
		lr := closedLoop(clients, d, w.client)
		figures = endToEnd(lr, retained, median(setups), len(setups))
		res = result{Attempted: lr.attempted, Failed: lr.failed}
		err = lr.wrong
		if p99 := lr.blockPercentiles(0.99); len(p99) > 0 {
			sort.Float64s(p99)
			fmt.Printf("info latency_p99_blocks_ms=min:%.3f,median:%.3f,max:%.3f,blocks:%d\n",
				ms(time.Duration(p99[0])), ms(time.Duration(median(p99))), ms(time.Duration(p99[len(p99)-1])), len(p99))
		}
		if err == nil && lr.completed < latencyBlock {
			err = fmt.Errorf("only %d verified requests: latency_p99_ms needs at least %d for ten samples beyond it", lr.completed, latencyBlock)
		}
	} else {
		figures, res, spans, err = perLayer(w, d)
	}
	if err == nil {
		err = w.check()
	}
	fmt.Printf("info heap_end_mib=%.2f\n", liveMiB())
	res.Correct = err == nil
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	res.Metrics = map[string]metricPayload{}
	for _, m := range figures {
		fmt.Printf("metric %s %.6g %s samples=%d\n", m.name, m.value, m.unit, m.samples)
		res.Metrics[m.name] = metricPayload{m.value, m.unit}
	}
	if werr := writeRecord(recordDir, name, seed, trace, meta, inputs, figures, spans, res); werr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run record not written:", werr)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		return jerr
	}
	fmt.Println(string(line))
	if err != nil {
		return errIncorrect
	}
	return nil
}

// endToEnd derives the end-to-end metrics of one untraced timed loop.
func endToEnd(lr loopResult, retained, setup float64, setupSamples int) []metric {
	n := lr.completed
	per := func(x float64) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	return []metric{
		{"throughput_rps", lr.windowMedian(func(w window) float64 { return float64(w.completed) / w.wall.Seconds() }), "1/s", len(lr.windows)},
		{"latency_p50_ms", ms(lr.latencyPercentile(0.50)), "ms", n},
		{"latency_p99_ms", ms(lr.latencyPercentile(0.99)), "ms", n},
		{"cpu_ms_per_req", lr.windowMedian(func(w window) float64 { return ms(w.cpu) / float64(w.completed) }), "ms", len(lr.windows)},
		{"allocs_per_req", per(float64(lr.allocs)), "count", n},
		{"alloc_kb_per_req", per(float64(lr.allocBytes) / 1024), "KiB", n},
		{"retained_mb", retained, "MiB", 1},
		{"setup_s", setup, "s", setupSamples},
		{"success_share", float64(n) / float64(max(lr.attempted, 1)), "ratio", lr.attempted},
	}
}

// runMeta is printed with every run and recorded beside its results, so
// absolute figures stay comparable across commits and hosts.
func runMeta(name string, seed int64, seconds, trace, clients int) [][2]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return [][2]string{
		{"workload", name},
		{"commit", commit},
		{"source_sha256", sourceDigest(".")},
		{"go_version", runtime.Version()},
		{"goos_goarch", runtime.GOOS + "/" + runtime.GOARCH},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"seed", fmt.Sprint(seed)},
		{"clients", fmt.Sprint(clients)},
		{"run_seconds", fmt.Sprint(seconds)},
		{"trace", fmt.Sprint(trace)},
		{"started", time.Now().UTC().Format(time.RFC3339)},
	}
}

// sourceDigest hashes the program's Go sources and go.mod under root, the
// benchmark's own directory excluded: a commit identity that survives a
// checkout without version-control metadata.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// recordSpans bounds how many spans a run record keeps.
const recordSpans = 5000

// writeRecord stores the run's metadata, input characteristics, metrics
// (with sample counts) and the first recordSpans spans of a traced run as
// one JSON file under dir.
func writeRecord(dir, name string, seed int64, trace int, meta [][2]string, inputs []string, ms []metric, spans []span, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type rec struct {
		Meta    map[string]string `json:"meta"`
		Inputs  []string          `json:"inputs"`
		Metrics []map[string]any  `json:"metrics"`
		Spans   []map[string]any  `json:"spans,omitempty"`
		Result  result            `json:"result"`
	}
	r := rec{Meta: map[string]string{}, Inputs: inputs, Result: res}
	for _, kv := range meta {
		r.Meta[kv[0]] = kv[1]
	}
	for _, m := range ms {
		r.Metrics = append(r.Metrics, map[string]any{"name": m.name, "value": m.value, "unit": m.unit, "samples": m.samples})
	}
	for _, sp := range spans[:min(len(spans), recordSpans)] {
		r.Spans = append(r.Spans, map[string]any{"name": sp.name, "request": sp.req, "parent": sp.parent,
			"start_us": sp.start.Microseconds(), "duration_us": (sp.end - sp.start).Microseconds(), "allocs": sp.allocs})
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d.json", name, seed, trace, time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
