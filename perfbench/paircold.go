package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ccs"
	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// pair-cold: pair requests through ccs.Checker.Do, each session of
// pairSessionLen requests on a fresh memory-only Checker, like one
// `ccs batch` run. Within a session every process is new, so parsing,
// fingerprinting, saturation and quotient derivation carry the load;
// compose, otf, server and store do nothing. A fresh Checker per session
// keeps the heap bounded however long the run.

const (
	pairBases      = 1024 // distinct random processes in the pool
	pairRequests   = 2 * pairBases
	pairSessionLen = 64 // requests per Checker; at most pairBases
	pairStates     = 60 // the size of the ROADMAP's cold-request probe
	pairMinReach   = 50 // fewer reachable states: drawn again
	pairArcs       = 150
	pairActions    = 3
	pairTauShare   = 0.25
	// freshAction labels the extra start move of the inequivalent partner;
	// gen.Random never uses it.
	freshAction = "fresh"
)

// pairRelations rotate through the pool; each is decided in polynomial
// time (Theorems 3.1 and 4.1(a)), so per-request cost stays within a
// small factor.
var pairRelations = []string{"strong", "weak", "congruence"}

type pairInput struct {
	req ccs.CheckRequest
	exp expectation
}

type pairCold struct {
	clients int
	reqs    []pairInput
	stats   []string

	warm        []*ccs.Checker // set-up's Checkers, one per client, held for retained_mb
	heapSamples []float64      // client 0's live heap at session starts, MiB
}

func newPairCold(seed int64, clients int) *pairCold {
	rng := rand.New(rand.NewSource(seed))
	bases := make([]*fsp.FSP, pairBases)
	var states, arcs []int
	for i := range bases {
		var reach int
		bases[i], reach = randomProcess(rng, pairStates, pairMinReach, pairArcs)
		states = append(states, reach)
		arcs = append(arcs, bases[i].NumTransitions())
	}
	w := &pairCold{clients: clients}
	equivalent := 0
	relCount := map[string]int{}
	for i := 0; i < pairRequests; i++ {
		b := i % pairBases
		p := bases[b]
		rel := pairRelations[i%len(pairRelations)]
		q, eq := partner(rng, p)
		if eq {
			equivalent++
		}
		relCount[rel]++
		kind := map[bool]string{true: "renumbered", false: "fresh-start"}[eq]
		w.reqs = append(w.reqs, pairInput{
			req: ccs.NewCheck(rel, fsp.FormatString(p), fsp.FormatString(q)),
			exp: expectation{input: fmt.Sprintf("pair %d (base %d, %s, %s partner)", i, b, rel, kind), equivalent: eq},
		})
	}
	w.stats = []string{
		"pool_requests=" + fmt.Sprint(pairRequests),
		"distinct_processes=" + fmt.Sprint(pairBases+pairRequests),
		"reachable_states=" + distribution(states),
		"arcs=" + distribution(arcs),
		fmt.Sprintf("generator=gen.Random(states=%d,arcs=%d,actions=%d,tau=%.2f),min_reachable=%d", pairStates, pairArcs, pairActions, pairTauShare, pairMinReach),
		fmt.Sprintf("relation_mix=strong:%d,weak:%d,congruence:%d", relCount["strong"], relCount["weak"], relCount["congruence"]),
		fmt.Sprintf("equivalent_share=%.3f", float64(equivalent)/pairRequests),
		fmt.Sprintf("session_len=%d", pairSessionLen),
		"novel_share=1 (every process is first seen in its session)",
	}
	return w
}

// randomProcess draws gen.Random processes until one has at least
// minReach reachable states, returning it and that count. Degenerate draws
// (a start state with no way out) would make the per-request cost vary
// with the seed far more than the pool size can average out.
func randomProcess(rng *rand.Rand, states, minReach, arcs int) (*fsp.FSP, int) {
	for {
		p := gen.Random(rng, states, arcs, pairActions, pairTauShare)
		reach := 0
		for _, ok := range p.Reachable() {
			if ok {
				reach++
			}
		}
		if reach >= minReach {
			return p, reach
		}
	}
}

// partner draws p's partner with even odds: an fsp.Renumber copy, which
// is equivalent to p under strong, weak and congruence yet has another
// fingerprint, or p with one fresh visible move at its start, which is
// inequivalent to p under all three. It reports which one it drew.
func partner(rng *rand.Rand, p *fsp.FSP) (*fsp.FSP, bool) {
	if rng.Intn(2) == 0 {
		perm := make([]fsp.State, p.NumStates())
		for j, k := range rng.Perm(p.NumStates()) {
			perm[j] = fsp.State(k)
		}
		return mustFSP(fsp.Renumber(p, perm)), true
	}
	text := fsp.FormatString(p) + fmt.Sprintf("arc %d %s %d\n", p.Start(), freshAction, p.Start())
	return mustFSP(fsp.ParseString(text)), false
}

// mustFSP unwraps a construction that cannot fail on a well-formed input.
func mustFSP(f *fsp.FSP, err error) *fsp.FSP {
	if err != nil {
		panic(err)
	}
	return f
}

// distribution renders min/median/max of xs.
func distribution(xs []int) string {
	s := append([]int(nil), xs...)
	sort.Ints(s)
	return fmt.Sprintf("min:%d,median:%d,max:%d", s[0], s[len(s)/2], s[len(s)-1])
}

func (w *pairCold) describe() []string { return w.stats }

// start returns client id's first pool index. Request i draws base
// i%pairBases, so clients start spread over the bases, not the requests:
// at any moment they work on different processes.
func (w *pairCold) start(id int) int {
	return id * (pairBases / w.clients)
}

// setup runs each client's first session on a Checker of its own, so the
// runtime's heap and code paths are warm and retained_mb sees what the
// timed loop holds: one Checker with a full session per client.
func (w *pairCold) setup() (time.Duration, error) {
	t0 := time.Now()
	w.warm = nil
	for id := 0; id < w.clients; id++ {
		c := ccs.NewChecker()
		for i := 0; i < pairSessionLen; i++ {
			in := &w.reqs[(w.start(id)+i)%pairRequests]
			if err := verifyReport(in.exp, c.Do(context.Background(), in.req, nil)); err != nil {
				return 0, err
			}
		}
		w.warm = append(w.warm, c)
	}
	return time.Since(t0), nil
}

func (w *pairCold) client(id int) request {
	w.warm = nil
	w.heapSamples = nil
	var c *ccs.Checker
	first := w.start(id)
	return func(seq int) outcome {
		if seq%pairSessionLen == 0 {
			c = ccs.NewChecker()
			if id == 0 {
				w.heapSamples = append(w.heapSamples, float64(readRuntime().liveBytes)/(1<<20))
			}
		}
		in := &w.reqs[(first+seq)%pairRequests]
		return judge(verifyReport(in.exp, c.Do(context.Background(), in.req, nil)))
	}
}

func (w *pairCold) phased(id int, ph map[string]time.Duration) request {
	var c *ccs.Checker
	first := w.start(id)
	return func(seq int) outcome {
		if seq%pairSessionLen == 0 {
			c = ccs.NewChecker()
		}
		in := &w.reqs[(first+seq)%pairRequests]
		req := in.req
		req.Trace = true
		rep := c.Do(context.Background(), req, nil)
		addPhases(ph, rep)
		return judge(verifyReport(in.exp, rep))
	}
}

// addPhases sums a report's phase timeline into ph.
func addPhases(ph map[string]time.Duration, rep ccs.Report) {
	if rep.Trace == nil {
		return
	}
	for _, sp := range rep.Trace.Spans {
		ph[sp.Phase] += time.Duration(sp.DurationMS * float64(time.Millisecond))
	}
}

// spanned decides the same stream through the engine's public accessors
// in the order the engine's own check uses them — quotients, then (for
// weak) saturated forms, then the solve on the cached artifacts — with a
// fresh engine.Checker per session.
func (w *pairCold) spanned(id int, rec *recorder) request {
	var e *engine.Checker
	first := w.start(id)
	ctx := context.Background()
	return func(seq int) outcome {
		if seq%pairSessionLen == 0 {
			e = engine.New()
		}
		in := &w.reqs[(first+seq)%pairRequests]
		rec.beginRequest()
		var p, q *fsp.FSP
		var err error
		rec.call("fsp.parse", func() {
			if p, err = fsp.ParseString(in.req.P); err == nil {
				q, err = fsp.ParseString(in.req.Q)
			}
		})
		rel := map[string]engine.Relation{"strong": engine.Strong, "weak": engine.Weak, "congruence": engine.Congruence}[in.req.Relation]
		if err == nil {
			err = deriveQuotients(rec, e, rel, p, q)
		}
		var eq bool
		if err == nil {
			rec.call("engine.solve", func() { eq, err = e.Check(ctx, engine.Query{P: p, Q: q, Rel: rel}) })
		}
		rec.endRequest()
		rec.count("engine.records", float64(e.Processes()))
		if p != nil && q != nil {
			rec.measureBeside("fsp.fingerprint_ms", func() { fsp.Fingerprint(p); fsp.Fingerprint(q) })
		}
		return judge(verifyReport(in.exp, reportOf(eq, err)))
	}
}

// deriveQuotients warms the artifacts a pair check of rel reads, one span
// per derivation stage.
func deriveQuotients(rec *recorder, e *engine.Checker, rel engine.Relation, p, q *fsp.FSP) error {
	var err error
	if rel != engine.Weak {
		rec.call("engine.quotient", func() {
			if _, err = e.StrongQuotient(p); err == nil {
				_, err = e.StrongQuotient(q)
			}
		})
		return err
	}
	var minP, minQ *fsp.FSP
	rec.call("engine.quotient", func() {
		if minP, err = e.WeakQuotient(p); err == nil {
			minQ, err = e.WeakQuotient(q)
		}
	})
	if err != nil {
		return err
	}
	rec.call("engine.saturate", func() {
		if _, _, err = e.Saturated(minP); err == nil {
			_, _, err = e.Saturated(minQ)
		}
	})
	return err
}

// reportOf wraps a verdict from an executor that bypasses the facade into
// the report shape the oracle reads.
func reportOf(eq bool, err error) ccs.Report {
	if err != nil {
		return ccs.Report{Error: &ccs.ReportError{Kind: ccs.ErrorKindCheck, Message: err.Error()}}
	}
	return ccs.Report{Equivalent: eq}
}

// check fails when the live heap at session starts grew over the run: a
// fresh Checker per session must leave nothing behind.
func (w *pairCold) check() error {
	s := w.heapSamples
	if len(s) < 6 {
		return nil
	}
	third := len(s) / 3
	early, late := median(s[:third]), median(s[len(s)-third:])
	fmt.Printf("info heap_at_session_start_mib=first-third:%.1f,last-third:%.1f,sessions:%d\n", early, late, len(s))
	if late > 1.5*early+16 {
		return fmt.Errorf("working set grew with session count: live heap %.1f MiB over the first third of %d sessions, %.1f MiB over the last", early, len(s), late)
	}
	return nil
}

func (w *pairCold) close() {}
