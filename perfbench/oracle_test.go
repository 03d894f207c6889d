package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"ccs"
	"ccs/internal/gen"
)

// The oracle must catch a verdict that contradicts the expectation and
// name the input; each test flips one expectation deliberately.

func TestOracleCatchesWrongPairExpectation(t *testing.T) {
	w := newPairCold(7, 1)
	c := ccs.NewChecker()
	for i := 0; i < 6; i++ { // both partner kinds, every relation
		in := w.reqs[i]
		rep := c.Do(context.Background(), in.req, nil)
		if err := verifyReport(in.exp, rep); err != nil {
			t.Fatalf("true expectation rejected: %v", err)
		}
		in.exp.equivalent = !in.exp.equivalent
		out := judge(verifyReport(in.exp, rep))
		if out.ok || out.wrong == nil || !strings.Contains(out.wrong.Error(), in.exp.input) {
			t.Fatalf("flipped expectation on %s not caught: %+v", in.exp.input, out)
		}
	}
}

func TestOracleCatchesWrongNetworkExpectation(t *testing.T) {
	w := newNetworkWorkload(7)
	c := ccs.NewChecker()
	for _, in := range w.kinds[:4] { // an equivalent and an inequivalent instance, both routes
		rep := c.Do(context.Background(), in.req, nil)
		if err := verifyReport(in.exp, rep); err != nil {
			t.Fatalf("documented verdict rejected: %v", err)
		}
		in.exp.equivalent = !in.exp.equivalent
		if out := judge(verifyReport(in.exp, rep)); out.wrong == nil || !strings.Contains(out.wrong.Error(), in.exp.input) {
			t.Fatalf("flipped expectation on %s not caught: %+v", in.exp.input, out)
		}
	}
}

func TestOracleCatchesWrongRoute(t *testing.T) {
	exp := expectation{input: "network x (route mtc)", equivalent: true, route: ccs.RouteMTC}
	if out := judge(verifyReport(exp, ccs.Report{Equivalent: true, Route: "otf"})); out.wrong == nil {
		t.Fatal("a pinned route answered on another route was not caught")
	}
}

func TestOracleCatchesWrongVetCodes(t *testing.T) {
	for _, g := range gen.VetGallery() {
		diags, err := ccs.VetNetworkRequest(networkRequest(g.Net, g.Spec), nil)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		exp := expectation{input: "vet gallery " + g.Name, codes: g.Codes}
		if err := verifyVet(exp, diags); err != nil {
			t.Fatalf("gallery codes rejected: %v", err)
		}
		exp.codes = append(append([]string(nil), g.Codes...), "dead-sync")
		if out := judge(verifyVet(exp, diags)); out.wrong == nil || !strings.Contains(out.wrong.Error(), g.Name) {
			t.Fatalf("extra expected code on %s not caught: %+v", g.Name, out)
		}
	}
}

func TestFailedRequestIsAMissNotAContradiction(t *testing.T) {
	exp := expectation{input: "pair 0", equivalent: true}
	out := judge(verifyReport(exp, ccs.Report{Error: &ccs.ReportError{Kind: ccs.ErrorKindTimeout, Message: "deadline"}}))
	if out.ok || out.wrong != nil {
		t.Fatalf("an error report must count as a failed request: %+v", out)
	}
}

// TestServeSessionRestartsKeepStoreUnderCap drives the service workload
// through set-up and a few sessions: every verdict must match, the store
// must stay under its cap, and the server must restart on schedule.
func TestServeSessionRestartsKeepStoreUnderCap(t *testing.T) {
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	w, err := newServe(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	req := w.client(0)
	for seq := 0; seq < 2*serveSessionLen+10; seq++ {
		if out := req(seq); !out.ok {
			t.Fatalf("request %d: %+v", seq, out)
		}
	}
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	if w.restarts < 2 { // one per session boundary
		t.Fatalf("restarts = %d, want >= 2", w.restarts)
	}
}

// The pair-cold working-set check must fail when the live heap at session
// starts climbs with the session count, and pass when it stays flat.
func TestPairColdCheckFailsOnHeapGrowth(t *testing.T) {
	w := &pairCold{}
	for i := 0; i < 30; i++ {
		w.heapSamples = append(w.heapSamples, 10+float64(i%3))
	}
	if err := w.check(); err != nil {
		t.Fatalf("flat heap rejected: %v", err)
	}
	w.heapSamples = nil
	for i := 0; i < 30; i++ {
		w.heapSamples = append(w.heapSamples, 10+float64(4*i))
	}
	if err := w.check(); err == nil {
		t.Fatal("a heap growing by 4 MiB per session was not caught")
	}
}
