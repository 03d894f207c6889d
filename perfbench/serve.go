package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccs"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/server"
)

// serve: JSON over loopback HTTP to an in-process internal/server whose
// Checker is backed by a byte-capped artifact store in a temporary
// directory under the checkout. The traffic is mostly repeat pairs from a
// fixed pool; a minority carry a novel process, which puts store writes
// and evictions beside store reads; small gallery networks and /v1/vet
// requests complete the mix. Every serveSessionLen requests the server
// restarts on the same store directory, like a `ccs serve` restart, so
// each session's first touches are store reads. HTTP/JSON, the cache
// lookup on re-parsed text and store I/O carry the load; derivation is
// rare.

// Every store access is a file operation, whose cost on a shared host
// swings with other file traffic; the novel share and the restart period
// are sized so the store is a visible share of each request, not all of it.
// Creating a file also costs more the more files were deleted on the file
// system in the last minute or so (a journal-less ext4 skips recently
// freed inodes), and each novel pair's artifacts are written and later
// evicted. So novel pairs are held below 1% of requests, in a mix whose
// shares are exact in every cycle: p99 then reads the repeat path's tail
// rather than a seed-dependent mix of it and file creation, and the file
// churn one run leaves for the next set-up stays small.
const (
	serveSessionLen = 1000
	servePoolPairs  = 64
	serveNovelPairs = 2048
	serveStates     = 24
	serveMinReach   = 20
	serveArcs       = 60
	serveStreamLen  = 4000
	// serveStoreCap holds what set-up writes (the pool and the galleries,
	// about 0.1 MB) and is small enough that novel pairs (about 1.4 KB of
	// artifacts each) evict within the first seconds.
	serveStoreCap = 192 << 10
)

// Request kinds of the serve stream.
const (
	kindRepeat = iota
	kindNovel
	kindNetwork
	kindVet
)

// serveMix gives each kind's count in every cycle of 160 requests; the
// stream is a sequence of such cycles, each in a seeded order.
var serveMix = []struct {
	kind, perCycle int
	name           string
}{{kindRepeat, 127, "repeat_pair"}, {kindNovel, 1, "novel_pair"}, {kindNetwork, 16, "network"}, {kindVet, 16, "vet"}}

// seqHeader carries the traced run's request number to the handler timer.
const seqHeader = "X-Perfbench-Seq"

// serveInput is one pre-encoded request.
type serveInput struct {
	path         string // endpoint
	body, traced []byte // JSON, without and with the phase timeline
	exp          expectation
	p, q         *fsp.FSP // pool pairs: the processes, for the fingerprint probe
}

type serve struct {
	clients int
	pool    []serveInput // repeat pairs
	novel   []serveInput
	nets    []serveInput
	vets    []serveInput
	stream  []int // kinds, seeded
	streamI []int // index into the kind's inputs (repeat, network, vet)
	next    atomic.Int64
	stats   []string

	dir   string
	httpc *http.Client

	// Session state: the live server, requests left before the next
	// restart, requests in flight, and what finished sessions counted.
	mu         sync.Mutex
	cond       *sync.Cond
	live       *liveServer
	left       int
	inflight   int
	restarting bool
	restarts   int
	finished   ccs.StoreStats
	maxDir     int64
	setupBytes int64 // store size right after set-up
	fault      error

	// The handler timer of the traced run: the wrapper stores the
	// duration and heap objects of the request whose sequence number it
	// carries.
	timedSeq atomic.Int64
	timedNS  atomic.Int64
	timedObj atomic.Uint64
}

func newServe(seed int64, clients int) (*serve, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &serve{clients: clients}
	w.cond = sync.NewCond(&w.mu)
	pair := func(i int, label string, keep bool) (serveInput, error) {
		p, _ := randomProcess(rng, serveStates, serveMinReach, serveArcs)
		rel := pairRelations[i%len(pairRelations)]
		q, eq := partner(rng, p)
		req := ccs.NewCheck(rel, fsp.FormatString(p), fsp.FormatString(q))
		in, err := encodeInput("/v1/check", req)
		in.exp = expectation{input: fmt.Sprintf("%s %d (%s, equivalent=%t)", label, i, rel, eq), equivalent: eq}
		if keep {
			in.p, in.q = p, q
		}
		return in, err
	}
	for i := 0; i < servePoolPairs; i++ {
		in, err := pair(i, "pool pair", true)
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, in)
	}
	for i := 0; i < serveNovelPairs; i++ {
		in, err := pair(i, "novel pair", false)
		if err != nil {
			return nil, err
		}
		w.novel = append(w.novel, in)
	}
	for i, g := range append(gen.NetworkGallery(), gen.ProtocolGallery()...) {
		route := []string{ccs.RouteAuto, ccs.RouteMTC}[i%2]
		req := ccs.NewNetworkCheck("weak", networkRequest(g.Net, g.Spec), ccs.WithRoute(route))
		in, err := encodeInput("/v1/network", req)
		if err != nil {
			return nil, err
		}
		in.exp = expectation{input: fmt.Sprintf("gallery network %s (route %s)", g.Name, route), equivalent: g.Weak}
		if route == ccs.RouteMTC {
			in.exp.route = ccs.RouteMTC
		}
		w.nets = append(w.nets, in)
	}
	for _, g := range gen.VetGallery() {
		nr := networkRequest(g.Net, g.Spec)
		in, err := encodeInput("/v1/vet", ccs.CheckRequest{Network: &nr})
		if err != nil {
			return nil, err
		}
		in.exp = expectation{input: "vet gallery " + g.Name, codes: g.Codes}
		w.vets = append(w.vets, in)
	}
	var slots []int
	var mixParts []string
	for _, m := range serveMix {
		mixParts = append(mixParts, fmt.Sprintf("%s:%d", m.name, m.perCycle))
		for i := 0; i < m.perCycle; i++ {
			slots = append(slots, m.kind)
		}
	}
	for len(w.stream) < serveStreamLen {
		for _, j := range rng.Perm(len(slots)) {
			w.stream = append(w.stream, slots[j])
			w.streamI = append(w.streamI, rng.Int())
		}
	}
	w.dir = filepath.Join(".bench_build", fmt.Sprintf("perfbench-store-%d", os.Getpid()))
	w.httpc = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1, DisableCompression: true},
	}

	var states, arcs []int
	for _, in := range w.pool {
		states = append(states, in.p.NumStates())
		arcs = append(arcs, in.p.NumTransitions())
	}
	mix := strings.Join(mixParts, ",")
	eqPairs := 0
	for _, in := range w.pool {
		if in.exp.equivalent {
			eqPairs++
		}
	}
	w.stats = []string{
		fmt.Sprintf("mix_per_cycle=%s stream_len=%d", mix, len(w.stream)),
		fmt.Sprintf("pool_pairs=%d novel_pairs=%d gallery_networks=%d vet_exhibits=%d", servePoolPairs, serveNovelPairs, len(w.nets), len(w.vets)),
		"pool_pair_states=" + distribution(states),
		"pool_pair_arcs=" + distribution(arcs),
		"relation_mix=strong:1/3,weak:1/3,congruence:1/3 (pairs), weak (networks)",
		fmt.Sprintf("pool_equivalent_share=%.3f", float64(eqPairs)/servePoolPairs),
		fmt.Sprintf("session_len=%d (server restart on the same store dir)", serveSessionLen),
		"novel_share=0.0125 (each novel pair is sent once)",
		fmt.Sprintf("store_cap_bytes=%d", serveStoreCap),
		fmt.Sprintf("max_in_flight=%d clients=%d", 2*runtime.GOMAXPROCS(0), clients),
	}
	return w, nil
}

func encodeInput(path string, req ccs.CheckRequest) (serveInput, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serveInput{}, err
	}
	req.Trace = true
	traced, err := json.Marshal(req)
	return serveInput{path: path, body: body, traced: traced}, err
}

func (w *serve) describe() []string { return w.stats }

// pick returns the input at stream position i; novel pairs are handed out
// in order, each once while the pool lasts.
func (w *serve) pick(i int) *serveInput {
	i %= len(w.stream)
	switch w.stream[i] {
	case kindNovel:
		return &w.novel[int(w.next.Add(1)-1)%len(w.novel)]
	case kindNetwork:
		return &w.nets[w.streamI[i]%len(w.nets)]
	case kindVet:
		return &w.vets[w.streamI[i]%len(w.vets)]
	}
	return &w.pool[w.streamI[i]%len(w.pool)]
}

// liveServer is one incarnation of the service.
type liveServer struct {
	c    *ccs.Checker
	hs   *http.Server
	url  string
	done chan struct{}
}

func (w *serve) startServer() error {
	c, err := ccs.NewStoreChecker(w.dir, serveStoreCap)
	if err != nil {
		return err
	}
	s, err := server.New(server.Config{Checker: c, Version: "perfbench"})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ls := &liveServer{c: c, hs: &http.Server{Handler: w.timed(s.Handler())}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln)
	}()
	w.live = ls
	return nil
}

// stopServer closes the live server — no request is in flight when it is
// called — and folds its store counters into the finished sessions'.
func (w *serve) stopServer() {
	ls := w.live
	if ls == nil {
		return
	}
	w.live = nil
	ls.hs.Close()
	<-ls.done
	w.httpc.CloseIdleConnections()
	if st := ls.c.Stats().Store; st != nil {
		w.finished.Hits += st.Hits
		w.finished.Misses += st.Misses
		w.finished.Writes += st.Writes
		w.finished.Evictions += st.Evictions
	}
	size, err := dirBytes(w.dir)
	if err != nil && w.fault == nil {
		w.fault = err
	}
	w.maxDir = max(w.maxDir, size)
	if size > serveStoreCap && w.fault == nil {
		w.fault = fmt.Errorf("store dir %s holds %d bytes, over its %d-byte cap", w.dir, size, serveStoreCap)
	}
}

func (w *serve) restart() error {
	w.stopServer()
	w.restarts++
	return w.startServer()
}

// storeTotals is what the store counted so far, all sessions included.
func (w *serve) storeTotals() ccs.StoreStats {
	t := w.finished
	if w.live != nil {
		if st := w.live.c.Stats().Store; st != nil {
			t.Hits += st.Hits
			t.Misses += st.Misses
			t.Writes += st.Writes
			t.Evictions += st.Evictions
		}
	}
	return t
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}

// setup builds the store from nothing: a fresh directory, every pool
// pair, gallery network and vet exhibit sent once, then a restart, so the
// run's first session reads what set-up wrote.
func (w *serve) setup() (time.Duration, error) {
	w.stopServer()
	if err := os.RemoveAll(w.dir); err != nil {
		return 0, err
	}
	// Flush the file system first, so set-up does not pay for the write-back
	// of earlier runs' store traffic (with that backlog, the same set-up
	// took up to three times as long in back-to-back runs).
	syscall.Sync()
	t0 := time.Now()
	if err := w.startServer(); err != nil {
		return 0, err
	}
	for _, group := range [][]serveInput{w.pool, w.nets, w.vets} {
		for i := range group {
			if err := w.send(&group[i], false, -1, nil, nil); err != nil {
				return 0, err
			}
		}
	}
	if err := w.restart(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	w.left = serveSessionLen
	w.finished, w.restarts = ccs.StoreStats{}, 0 // count the run's sessions only
	if size, err := dirBytes(w.dir); err == nil {
		w.setupBytes = size
	}
	return d, nil
}

// acquire admits one request into the current session, restarting the
// server first when the session is used up and nothing is in flight.
func (w *serve) acquire() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.left == 0 {
		if w.inflight == 0 && !w.restarting {
			w.restarting = true
			w.mu.Unlock()
			err := w.restart()
			w.mu.Lock()
			w.restarting = false
			w.cond.Broadcast()
			if err != nil {
				if w.fault == nil {
					w.fault = err
				}
				return err
			}
			w.left = serveSessionLen
			continue
		}
		w.cond.Wait()
	}
	w.left--
	w.inflight++
	return nil
}

func (w *serve) release() {
	w.mu.Lock()
	w.inflight--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// timed wraps the server's handler with the traced run's timer, which
// times only requests that carry a sequence number; the others pay one
// header lookup.
func (w *serve) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(rw, r)
			return
		}
		objs := newAllocCounter()
		a0 := objs.read()
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		w.timedNS.Store(int64(time.Since(t0)))
		w.timedObj.Store(objs.read() - a0)
		w.timedSeq.Store(seq)
	})
}

// send posts one input and verifies the answer. seq >= 0 asks the handler
// timer for this request; rec, when non-nil, receives the server's phase
// timeline under the handler span; ph, when non-nil, sums the phases.
func (w *serve) send(in *serveInput, traced bool, seq int64, rec *recorder, ph map[string]time.Duration) error {
	body := in.body
	if traced {
		body = in.traced
	}
	hreq, err := http.NewRequest(http.MethodPost, w.live.url+in.path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if seq >= 0 {
		hreq.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	resp, err := w.httpc.Do(hreq)
	if err != nil {
		return errFailed{fmt.Sprintf("%s: %v", in.exp.input, err)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return errFailed{fmt.Sprintf("%s: reading response: %v", in.exp.input, err)}
	}
	if resp.StatusCode == http.StatusTooManyRequests && rec != nil {
		rec.count("server.rejected", 1)
	}
	if resp.StatusCode != http.StatusOK {
		return errFailed{fmt.Sprintf("%s: HTTP %d: %s", in.exp.input, resp.StatusCode, bytes.TrimSpace(data))}
	}
	if rec != nil && seq >= 0 {
		for w.timedSeq.Load() != seq {
			runtime.Gosched()
		}
		handler := rec.measured(-1, "server.handler", time.Duration(w.timedNS.Load()), w.timedObj.Load())
		if in.path != "/v1/vet" {
			var rep ccs.Report
			if err := json.Unmarshal(data, &rep); err == nil && rep.Trace != nil {
				for _, sp := range rep.Trace.Spans {
					if name, ok := phaseNames[sp.Phase]; ok {
						rec.measured(handler, name, time.Duration(sp.DurationMS*float64(time.Millisecond)), 0)
					}
				}
			}
		}
	}
	if in.path == "/v1/vet" {
		var env ccs.VetEnvelope
		if err := json.Unmarshal(data, &env); err != nil || len(env.Vets) != 1 {
			return errFailed{fmt.Sprintf("%s: undecodable vet response: %s", in.exp.input, bytes.TrimSpace(data))}
		}
		return verifyVet(in.exp, env.Vets[0].Diagnostics)
	}
	var rep ccs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return errFailed{fmt.Sprintf("%s: undecodable report: %v", in.exp.input, err)}
	}
	if ph != nil {
		addPhases(ph, rep)
	}
	return verifyReport(in.exp, rep)
}

func (w *serve) start(id int) int { return id * (serveStreamLen / w.clients) }

func (w *serve) client(id int) request {
	first := w.start(id)
	return func(seq int) outcome {
		if err := w.acquire(); err != nil {
			return outcome{}
		}
		defer w.release()
		return judge(w.send(w.pick(first+seq), false, -1, nil, nil))
	}
}

func (w *serve) phased(id int, ph map[string]time.Duration) request {
	first := w.start(id)
	return func(seq int) outcome {
		if err := w.acquire(); err != nil {
			return outcome{}
		}
		defer w.release()
		return judge(w.send(w.pick(first+seq), true, -1, nil, ph))
	}
}

// spanned sends the same stream with the handler timer on: the client's
// round trip is the server.http span, the wrapped handler its
// server.handler child, and the program's phase timeline (fsp parse,
// engine quotient/saturate/solve, vet, compose, otf) the handler's
// children. The traced run has one client, so one timer slot suffices.
func (w *serve) spanned(id int, rec *recorder) request {
	first := w.start(id)
	var seqs int64
	return func(seq int) outcome {
		if err := w.acquire(); err != nil {
			return outcome{}
		}
		defer w.release()
		in := w.pick(first + seq)
		before := w.storeTotals()
		seqs++
		rec.beginRequest()
		var err error
		rec.call("server.http", func() { err = w.send(in, true, seqs, rec, nil) })
		rec.endRequest()
		after := w.storeTotals()
		rec.count("store.hits", float64(after.Hits-before.Hits))
		rec.count("store.misses", float64(after.Misses-before.Misses))
		rec.count("store.lookups", float64(after.Hits-before.Hits+after.Misses-before.Misses))
		rec.count("store.writes", float64(after.Writes-before.Writes))
		rec.count("store.evictions", float64(after.Evictions-before.Evictions))
		rec.count("engine.records", float64(w.live.c.Stats().Processes))
		if in.p != nil {
			rec.measureBeside("fsp.fingerprint_ms", func() { fsp.Fingerprint(in.p); fsp.Fingerprint(in.q) })
		}
		return judge(err)
	}
}

// check reports the store's footprint and fails on a directory over its
// cap or a restart that failed.
func (w *serve) check() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.storeTotals()
	fmt.Printf("info store restarts=%d setup_bytes=%d max_dir_bytes=%d cap_bytes=%d hits=%d misses=%d writes=%d evictions=%d novel_sent=%d\n",
		w.restarts, w.setupBytes, w.maxDir, serveStoreCap, t.Hits, t.Misses, t.Writes, t.Evictions, w.next.Load())
	if w.live != nil {
		size, err := dirBytes(w.dir)
		if err != nil {
			return err
		}
		if size > serveStoreCap {
			return fmt.Errorf("store dir %s holds %d bytes, over its %d-byte cap", w.dir, size, serveStoreCap)
		}
	}
	return w.fault
}

func (w *serve) close() {
	w.mu.Lock()
	w.stopServer()
	w.mu.Unlock()
	os.RemoveAll(w.dir)
}
