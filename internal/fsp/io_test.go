package fsp

import (
	"bufio"
	"errors"
	"strings"
	"testing"
)

const sampleText = `
# a small process
fsp demo
alphabet a b
vars x
states 4
start 0
ext 2 x
arc 0 a 1
arc 1 b 2
arc 0 tau 3
arc 3 b 2
`

func TestParse(t *testing.T) {
	f, err := ParseString(sampleText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name() != "demo" {
		t.Errorf("name = %q", f.Name())
	}
	if f.NumStates() != 4 || f.NumTransitions() != 4 {
		t.Errorf("shape = %d/%d", f.NumStates(), f.NumTransitions())
	}
	if !f.Accepting(2) {
		t.Errorf("ext lost")
	}
	if got := f.Dest(0, Tau); len(got) != 1 || got[0] != 3 {
		t.Errorf("tau arc lost: %v", got)
	}
}

func TestRoundTrip(t *testing.T) {
	f, err := ParseString(sampleText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	text := FormatString(f)
	g, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v\ntext:\n%s", err, text)
	}
	if FormatString(g) != text {
		t.Errorf("format not canonical:\n%s\nvs\n%s", text, FormatString(g))
	}
	if g.NumStates() != f.NumStates() || g.NumTransitions() != f.NumTransitions() {
		t.Errorf("round trip changed shape")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"empty", ""},
		{"no states", "fsp x\nalphabet a\n"},
		{"arc before states", "arc 0 a 1\n"},
		{"bad state count", "states zero\n"},
		{"zero states", "states 0\n"},
		{"start out of range", "states 2\nstart 5\n"},
		{"arc out of range", "states 2\narc 0 a 7\n"},
		{"arc arity", "states 2\narc 0 a\n"},
		{"duplicate states", "states 2\nstates 2\n"},
		{"alphabet after states", "states 2\nalphabet a\n"},
		{"tau in alphabet", "alphabet tau\nstates 1\n"},
		{"unknown directive", "states 1\nbogus 1\n"},
		{"ext missing state", "states 1\next\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseString(tc.text); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.text)
			}
		})
	}
}

func TestParseDefaults(t *testing.T) {
	f, err := ParseString("states 2\narc 0 a 1\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Start() != 0 {
		t.Errorf("default start = %d", f.Start())
	}
	if _, ok := f.Alphabet().Lookup("a"); !ok {
		t.Errorf("implicit alphabet interning failed")
	}
}

func TestDOT(t *testing.T) {
	f, err := ParseString(sampleText)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	dot := DOTString(f)
	for _, want := range []string{"digraph", "doublecircle", "style=dashed", "s0 -> s1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

// TestParseLongLine: a line of maxLineBytes bytes or more (a '\r'
// before the newline counts) fails with bufio.ErrTooLong; one byte
// shorter parses, with or without a final newline.
func TestParseLongLine(t *testing.T) {
	for _, tc := range []struct {
		n       int
		nl      string
		tooLong bool
	}{
		{maxLineBytes - 1, "", false},
		{maxLineBytes - 1, "\n", false},
		{maxLineBytes - 1, "\r\n", true},
		{maxLineBytes, "", true},
		{maxLineBytes, "\n", true},
	} {
		_, err := ParseString("states 1\n#" + strings.Repeat("x", tc.n-1) + tc.nl)
		if tc.tooLong != errors.Is(err, bufio.ErrTooLong) || (!tc.tooLong && err != nil) {
			t.Errorf("line of %d bytes + %q: error %v, want too long = %v", tc.n, tc.nl, err, tc.tooLong)
		}
	}
}
