package fsp

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseFSP: the in-place field splitter agrees with strings.Fields
// on every input, and every process ParseString accepts survives a
// round trip through FormatString — the same process (structurally
// equal, same name). Parse reads its reader and calls ParseString, so it
// needs no separate target.
func FuzzParseFSP(f *testing.F) {
	files, err := filepath.Glob("../../examples/vet/procs/*.fsp")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example processes to seed from: %v", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, seed := range []string{
		sampleText, fpFixture, goldenMixed,
		"states 2\r\narc 0 a 1\r\next 1 x\r\n",
		"states 2\narc 0 a 1\u0085",
		"fsp\nstates 1\nstart 0 # comment\n\n",
		"alphabet a\nalphabet b\nstates 1",
		"alphabet\nalphabet\nstates 1",
		"alphabet tau\nstates 1",
		"vars x y\nstates 2\next 1 y z\n",
		"arc 0 a 1\nstates 2",
		"states 2\nstates 2",
		"states 0",
		"states 3\narc 0 a 5",
		"states 2\narc 0 a\n",
		"states 1\nstart -1",
		"states 1\nbogus 1",
		"\xff\xfe states 1",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := appendFields(nil, s), strings.Fields(s); !slices.Equal(got, want) {
			t.Fatalf("fields %q, strings.Fields %q", got, want)
		}
		if declaresStates(s) > fuzzMaxStates {
			t.Skip("state count too large to build here")
		}
		got, err := ParseString(s)
		if err != nil {
			return
		}
		text := FormatString(got)
		again, err := ParseString(text)
		switch {
		case err != nil:
			t.Fatalf("formatted process does not parse: %v\n%s", err, text)
		case again.Name() != got.Name() || !StructuralEqual(again, got):
			t.Fatalf("round trip changed the process:\n%s\n---\n%s", text, FormatString(again))
		}
	})
}

// fuzzMaxStates bounds the processes FuzzParseFSP builds. The format
// accepts any state count and a builder allocates every state up front,
// so a short "states 122222222" line would otherwise take gigabytes.
const fuzzMaxStates = 1 << 12

// declaresStates returns the largest count any "states" line of s
// declares, or 0.
func declaresStates(s string) int {
	most := 0
	for _, line := range strings.Split(s, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if f := strings.Fields(line); len(f) == 2 && f[0] == "states" {
			if n, err := strconv.Atoi(f[1]); err == nil && n > most {
				most = n
			}
		}
	}
	return most
}
