package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"ccs"
	"ccs/internal/compose"
	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/otf"
)

// network: network-vs-spec requests through ccs.Checker.Do on one
// long-lived Checker whose component quotients are cached during set-up.
// Half the requests take route auto (the on-the-fly game), half are
// pinned to mtc (minimize-then-compose), so compose and the otf game carry
// the load and deriving new processes does almost none. The instances are
// gen's protocol families, equivalent ones sweeping the whole state space
// and inequivalent ones exiting early, at sizes where a warm request costs
// ~0.45–1.4 ms on either route on a 2-CPU host: within about 3x of each
// other, so p99 reflects the whole mix rather than one heavy instance. The
// floor is lossy-relay's early exit on the game, which costs little more
// than reading the request at any size.

// netInstance is one network and spec with the ≈ verdict its gen
// constructor documents.
type netInstance struct {
	name string
	net  *compose.Network
	spec *fsp.FSP
	weak bool
}

func networkInstances() []netInstance {
	return []netInstance{
		{"relay-7", gen.RelayNetwork(7, 24), gen.CounterSpec(7), true},
		{"lossy-relay-7", gen.LossyRelayNetwork(7, 24), gen.CounterSpec(7), false},
		{"token-ring-24", gen.TokenRing(24), gen.TokenRingSpec(), true},
		{"buggy-token-ring-24", gen.BuggyTokenRing(24), gen.TokenRingSpec(), false},
		{"leader-ring-11", gen.ElectionRing(11), gen.ElectionSpec(), true},
		{"leader-ring-12-no-ack", gen.NoAckElectionRing(12), gen.ElectionSpec(), false},
		{"2pc-15-commit", gen.TwoPhaseCommit(15, 0), gen.DecisionSpec("commit"), true},
		{"2pc-15-abort", gen.TwoPhaseCommit(15, 1), gen.DecisionSpec("abort"), true},
		{"2pc-15-buggy", gen.BuggyTwoPhaseCommit(15), gen.DecisionSpec("abort"), false},
		{"bq-13-4-2faulty", gen.ByzantineQuorum(13, 4, 2), gen.DecideSpec(), true},
		{"bq-13-overfaulty", gen.ByzantineQuorum(13, 4, 5), gen.DecideSpec(), false},
		{"bq-swarm-9-3-starved", gen.ByzantineQuorumSwarm(9, 3, 4, 4), gen.DecideSpec(), false},
		{"stab-ring-10", gen.StabilizingTokenRing(10), gen.TokenRingSpec(), true},
		{"stab-ring-14-sinkhole", gen.SinkholeTokenRing(14), gen.TokenRingSpec(), false},
	}
}

// networkRequest encodes a generated network as the request schema's data
// form, every process inline as interchange text.
func networkRequest(net *compose.Network, spec *fsp.FSP) ccs.NetworkRequest {
	nr := ccs.NetworkRequest{Name: net.Name, Hide: append([]string(nil), net.Hidden...)}
	if spec != nil {
		nr.Spec = fsp.FormatString(spec)
	}
	texts := map[*fsp.FSP]string{}
	for _, c := range net.Components {
		t, ok := texts[c.P]
		if !ok {
			t = fsp.FormatString(c.P)
			texts[c.P] = t
		}
		nr.Components = append(nr.Components, ccs.NetworkComponentRef{Process: t, Relabel: c.Relabel})
	}
	for _, r := range net.Sync {
		nr.Sync = append(nr.Sync, ccs.NetworkSyncRule{Parts: append([]string(nil), r.Parts...), Result: r.Result})
	}
	return nr
}

// netRepeats is how often each (instance, route) request appears in the
// seeded stream.
const netRepeats = 8

type netInput struct {
	req ccs.CheckRequest
	exp expectation
}

type networkWorkload struct {
	insts []netInstance
	kinds []netInput // one per (instance, route), set-up order
	reqs  []netInput // the seeded stream
	c     *ccs.Checker
	e     *engine.Checker // the spanned executor's engine
	stats []string
}

func newNetworkWorkload(seed int64) *networkWorkload {
	w := &networkWorkload{insts: networkInstances()}
	equivalent := 0
	for _, in := range w.insts {
		nr := networkRequest(in.net, in.spec)
		for _, route := range []string{ccs.RouteAuto, ccs.RouteMTC} {
			exp := expectation{input: fmt.Sprintf("network %s (route %s)", in.name, route), equivalent: in.weak}
			if route == ccs.RouteMTC {
				exp.route = ccs.RouteMTC
			}
			w.kinds = append(w.kinds, netInput{req: ccs.NewNetworkCheck("weak", nr, ccs.WithRoute(route), ccs.WithLabel(in.name)), exp: exp})
		}
		if in.weak {
			equivalent++
		}
	}
	for r := 0; r < netRepeats; r++ {
		w.reqs = append(w.reqs, w.kinds...)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.reqs), func(i, j int) { w.reqs[i], w.reqs[j] = w.reqs[j], w.reqs[i] })
	w.stats = []string{
		fmt.Sprintf("instances=%d", len(w.insts)),
		fmt.Sprintf("stream_len=%d (each instance x route %d times, seeded order)", len(w.reqs), netRepeats),
		"relation_mix=weak:1 (the relation gen documents verdicts for)",
		"route_mix=auto:0.5,mtc:0.5",
		fmt.Sprintf("equivalent_share=%.3f", float64(equivalent)/float64(len(w.insts))),
		"novel_share=0 (component quotients are warm from set-up)",
	}
	return w
}

func (w *networkWorkload) describe() []string {
	// Product states and game pairs per instance, from a one-off engine
	// outside every timed section.
	e := engine.New()
	ctx := context.Background()
	lines := append([]string(nil), w.stats...)
	for _, in := range w.insts {
		prod, err := e.ComposeNetwork(ctx, in.net, engine.Weak)
		_, info, err2 := e.CheckNetworkOTFInfo(ctx, in.net, in.spec, engine.Weak, 0)
		if err != nil || err2 != nil {
			lines = append(lines, fmt.Sprintf("instance %s: error %v %v", in.name, err, err2))
			continue
		}
		lines = append(lines, fmt.Sprintf("instance=%s components=%d product_states=%d product_transitions=%d otf_pairs=%d otf_explored=%d otf_route=%s expect_weak=%t",
			in.name, len(in.net.Components), prod.NumStates(), prod.NumTransitions(), info.Pairs, info.Explored, info.Route, in.weak))
	}
	return lines
}

// setup warms a fresh Checker with every request kind once: component,
// spec and product quotients enter its cache.
func (w *networkWorkload) setup() (time.Duration, error) {
	t0 := time.Now()
	w.c = ccs.NewChecker()
	for _, k := range w.kinds {
		if err := verifyReport(k.exp, w.c.Do(context.Background(), k.req, nil)); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

// start offsets each client's place in the stream, so clients do not send
// the same instance in lockstep.
func (w *networkWorkload) start(id int) int { return id * 7 }

func (w *networkWorkload) client(id int) request {
	first := w.start(id)
	return func(seq int) outcome {
		in := &w.reqs[(first+seq)%len(w.reqs)]
		return judge(verifyReport(in.exp, w.c.Do(context.Background(), in.req, nil)))
	}
}

func (w *networkWorkload) phased(id int, ph map[string]time.Duration) request {
	first := w.start(id)
	return func(seq int) outcome {
		in := &w.reqs[(first+seq)%len(w.reqs)]
		req := in.req
		req.Trace = true
		rep := w.c.Do(context.Background(), req, nil)
		addPhases(ph, rep)
		return judge(verifyReport(in.exp, rep))
	}
}

// spanned decides the stream through the modules' public functions in the
// order the facade and engine call them: build the network from its data
// form (fsp parsing), vet it, look up the cached quotients, then either
// play the otf game or compose the minimized network and solve against
// the spec. Its engine is warmed like the Checker of set-up, untimed.
func (w *networkWorkload) spanned(id int, rec *recorder) request {
	if w.e == nil {
		w.e = engine.New()
		for _, k := range w.kinds {
			w.spannedOne(newRecorder(), k)
		}
	}
	first := w.start(id)
	return func(seq int) outcome {
		return judge(w.spannedOne(rec, w.reqs[(first+seq)%len(w.reqs)]))
	}
}

func (w *networkWorkload) spannedOne(rec *recorder, in netInput) error {
	ctx := context.Background()
	e := w.e
	rec.beginRequest()
	var net *ccs.Network
	var spec *fsp.FSP
	var err error
	rec.call("fsp.parse", func() { net, spec, err = in.req.Network.BuildNetwork(nil) })
	if err != nil {
		rec.endRequest()
		return verifyReport(in.exp, reportOf(false, err))
	}
	rec.call("vet", func() { _, err = ccs.VetNetwork(net, spec) })
	var eq bool
	route := ccs.RouteMTC
	if in.req.Route == ccs.RouteAuto {
		rec.count("otf.requests", 1)
		var minSpec *fsp.FSP
		var minNet *compose.Network
		rec.call("engine.quotient", func() {
			if minSpec, err = e.CongruenceQuotient(spec); err == nil {
				minNet, err = e.MinimizeNetwork(ctx, net, engine.Weak)
			}
		})
		var res *otf.Result
		if err == nil {
			rec.call("otf", func() { res, err = otf.Check(ctx, minNet, minSpec, otf.Weak, otf.Options{}) })
		}
		var undecided *otf.UndecidedError
		var ineligible *otf.IneligibleError
		switch {
		case err == nil:
			route, eq = "otf", res.Equivalent
			rec.count("otf.games", 1)
			rec.count("otf.pairs", float64(res.Pairs))
			rec.count("otf.explored", float64(res.Explored))
			rec.count("otf.steals", float64(res.Steals))
			rec.count("otf.utilization", res.Utilization)
		case errors.As(err, &undecided), errors.As(err, &ineligible):
			rec.count("otf.fallbacks", 1)
			err = nil
		}
	}
	if err == nil && route == ccs.RouteMTC {
		var minNet *compose.Network
		rec.call("engine.quotient", func() { minNet, err = e.MinimizeNetwork(ctx, net, engine.Weak) })
		var prod *fsp.FSP
		if err == nil {
			rec.call("compose", func() { prod, err = minNet.FSPCtx(ctx) })
		}
		if err == nil {
			rec.count("compose.states", float64(prod.NumStates()))
			rec.count("compose.transitions", float64(prod.NumTransitions()))
			rec.call("engine.solve", func() { eq, err = e.Check(ctx, engine.Query{P: prod, Q: spec, Rel: engine.Weak}) })
		}
	}
	rec.endRequest()
	rec.count("engine.records", float64(e.Processes()))
	rec.measureBeside("fsp.fingerprint_ms", func() {
		seen := map[*fsp.FSP]bool{spec: true}
		fsp.Fingerprint(spec)
		for _, c := range net.Components {
			if !seen[c.P] {
				seen[c.P] = true
				fsp.Fingerprint(c.P)
			}
		}
	})
	rep := reportOf(eq, err)
	rep.Route = route
	return verifyReport(in.exp, rep)
}

func (w *networkWorkload) check() error { return nil }

func (w *networkWorkload) close() {}
