package main

import (
	"fmt"
	"sort"
	"strings"

	"ccs"
)

// This file is the verdict oracle. Every expected answer is known from how
// the input was built, never from running a checker:
//
//   - a pair whose partner is an fsp.Renumber copy is equivalent under
//     strong, weak and congruence; a partner with one fresh visible action
//     at its start is inequivalent under all three;
//   - a network instance carries the ≈ verdict its gen constructor
//     documents, and must get it on every route;
//   - a /v1/vet request carries the codes gen.VetGallery lists for it.
//
// A contradiction names the input and stops the run.

// expectation is the answer one request must get.
type expectation struct {
	// input names the request's input for error messages.
	input string
	// equivalent is the expected verdict of a check request.
	equivalent bool
	// route is the route a pinned request must report ("" when any
	// route is acceptable).
	route string
	// codes are the diagnostic codes a vet request must report, each
	// exactly once.
	codes []string
}

// errFailed marks a request the program could not answer (a transport
// error, a 429, a timeout, an error report). It counts against
// success_share but is not a wrong verdict.
type errFailed struct{ msg string }

func (e errFailed) Error() string { return e.msg }

// verifyReport checks one check report against its expectation. It
// returns errFailed when the report carries no verdict.
func verifyReport(exp expectation, rep ccs.Report) error {
	if rep.Error != nil {
		return errFailed{fmt.Sprintf("%s: %s error: %s", exp.input, rep.Error.Kind, rep.Error.Message)}
	}
	if rep.Equivalent != exp.equivalent {
		return fmt.Errorf("wrong verdict on %s: got equivalent=%t, oracle says %t (route %s)",
			exp.input, rep.Equivalent, exp.equivalent, rep.Route)
	}
	if exp.route != "" && rep.Route != exp.route {
		return fmt.Errorf("wrong route on %s: got %q, request pinned %q", exp.input, rep.Route, exp.route)
	}
	return nil
}

// verifyVet checks the diagnostics of one vet report.
func verifyVet(exp expectation, diags []ccs.Diagnostic) error {
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = d.Code
	}
	want := append([]string(nil), exp.codes...)
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("wrong diagnostics on %s: got [%s], gallery lists [%s]",
			exp.input, strings.Join(got, ","), strings.Join(want, ","))
	}
	return nil
}

// judge turns a verification error into a loop outcome.
func judge(err error) outcome {
	if err == nil {
		return outcome{ok: true}
	}
	if _, failed := err.(errFailed); failed {
		return outcome{}
	}
	return outcome{wrong: err}
}
