package fsp

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"testing"
)

const fpFixture = `fsp p
states 3
start 0
ext 0 x
ext 2 x
arc 0 a 1
arc 0 tau 2
arc 1 b 2
`

// TestFingerprintParseTwice: the same text parsed twice yields distinct
// pointers but one structure — the engine-cache dedup contract.
func TestFingerprintParseTwice(t *testing.T) {
	p1, err := ParseString(fpFixture)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParseString(fpFixture)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("premise: expected distinct pointers")
	}
	if !StructuralEqual(p1, p2) {
		t.Error("two parses of one text are not structurally equal")
	}
	if Fingerprint(p1) != Fingerprint(p2) {
		t.Error("two parses of one text have different fingerprints")
	}
}

// TestFingerprintInterningOrder: the same process built with a different
// alphabet interning order must compare and hash equal.
func TestFingerprintInterningOrder(t *testing.T) {
	b1 := NewBuilder("p")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	b1.ArcName(0, "b", 1)
	p1 := b1.MustBuild()

	b2 := NewBuilder("q") // name differs too: names are not structure
	b2.Action("b")        // intern in the opposite order
	b2.Action("a")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "b", 1)
	p2 := b2.MustBuild()

	if !StructuralEqual(p1, p2) {
		t.Error("interning order changed structural equality")
	}
	if Fingerprint(p1) != Fingerprint(p2) {
		t.Error("interning order changed the fingerprint")
	}
}

// TestStructuralEqualDistinguishes: start state, arcs, labels, targets and
// extensions must all matter.
func TestStructuralEqualDistinguishes(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder("p")
		b.AddStates(3)
		b.ArcName(0, "a", 1)
		b.Accept(2)
		return b
	}
	p := base().MustBuild()

	variants := map[string]*FSP{}
	{
		b := base()
		b.SetStart(1)
		variants["start"] = b.MustBuild()
	}
	{
		b := base()
		b.ArcName(1, "a", 2)
		variants["extra arc"] = b.MustBuild()
	}
	{
		b := NewBuilder("p")
		b.AddStates(3)
		b.ArcName(0, "b", 1)
		b.Accept(2)
		variants["label"] = b.MustBuild()
	}
	{
		b := NewBuilder("p")
		b.AddStates(3)
		b.ArcName(0, "a", 2)
		b.Accept(2)
		variants["target"] = b.MustBuild()
	}
	{
		b := base()
		b.Accept(0)
		variants["extension"] = b.MustBuild()
	}
	for name, v := range variants {
		if StructuralEqual(p, v) {
			t.Errorf("%s: variant compares structurally equal", name)
		}
	}
}

// TestFingerprintRandomStability: fingerprints are deterministic and
// random unequal processes essentially never collide (smoke, not proof).
func TestFingerprintRandomStability(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[uint64]*FSP{}
	for i := 0; i < 200; i++ {
		b := NewBuilder("r")
		n := 2 + rng.Intn(6)
		b.AddStates(n)
		for j := 0; j < 1+rng.Intn(8); j++ {
			b.ArcName(State(rng.Intn(n)), string(rune('a'+rng.Intn(3))), State(rng.Intn(n)))
		}
		f := b.MustBuild()
		if Fingerprint(f) != Fingerprint(f) {
			t.Fatal("fingerprint not deterministic")
		}
		if prev, ok := seen[Fingerprint(f)]; ok && !StructuralEqual(prev, f) {
			// A collision between structurally different processes is
			// possible in principle; the cache handles it via
			// StructuralEqual. Just make sure the pair really differs.
			t.Logf("hash collision between distinct processes (handled by equality check)")
		}
		seen[Fingerprint(f)] = f
	}
}

// goldenMixed exercises every part of the hashed stream: an alphabet
// interned out of name order (tau, then "z" before "a"), non-ASCII
// action and variable names, tau arcs next to observable ones, repeated
// labels with several targets, multi-variable extensions and a start
// state other than 0.
const goldenMixed = `fsp mixed
alphabet z a ä b
vars y x
states 5
start 2
ext 0 x y
ext 2 y
ext 4 x
arc 0 z 1
arc 0 a 1
arc 0 tau 3
arc 0 a 4
arc 1 ä 2
arc 1 tau 1
arc 2 b 0
arc 2 z 4
arc 2 z 3
arc 3 tau 4
arc 4 a 0
arc 4 b 4
`

// TestFingerprintGolden pins Fingerprint and Fingerprint2 of committed
// processes. The persistent store keys entries by these values, so a
// change to either hash would turn every existing store directory cold;
// an optimization of the hash must keep the hashed byte stream as is.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		text    string // inline text; file names a committed file instead
		file    string
		fp, fp2 uint64
	}{
		{name: "fixture", text: fpFixture, fp: 0xf3418363e78d019d, fp2: 0x7f75f7b8f831d1c0},
		{name: "sample", text: sampleText, fp: 0x299fd191523eae6b, fp2: 0xfb34cb803f9e70c6},
		{name: "mixed", text: goldenMixed, fp: 0x4ade063a7d64671f, fp2: 0xdfb66748f6cd88bc},
		{name: "spin", file: "../../examples/vet/procs/spin.fsp", fp: 0x4df7baf52bbcf975, fp2: 0x26d9b7f143fefaac},
		{name: "unguarded", file: "../../examples/vet/procs/unguarded.fsp", fp: 0xae98bc04bd8f8290, fp2: 0x8bfacdc690fff0cd},
		{name: "sender", file: "../../examples/vet/procs/sender.fsp", fp: 0xbce1a3f33abd21b2, fp2: 0x656cc1b917c3aca5},
	} {
		text := tc.text
		if tc.file != "" {
			data, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			text = string(data)
		}
		f, err := ParseString(text)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := Fingerprint(f); got != tc.fp {
			t.Errorf("%s: Fingerprint = %#x, want %#x", tc.name, got, tc.fp)
		}
		if got := Fingerprint2(f); got != tc.fp2 {
			t.Errorf("%s: Fingerprint2 = %#x, want %#x", tc.name, got, tc.fp2)
		}
	}
}

// referenceFingerprint is the straightforward form of the canonical walk
// that fingerprint hashes: per state, sort (name, target) pairs and
// extension names by string, and feed everything through hash/fnv.
func referenceFingerprint(f *FSP, seed uint64) uint64 {
	h := fnv.New64a()
	var word [8]byte
	writeInt := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	if seed != 0 {
		writeInt(seed)
	}
	writeInt(uint64(f.NumStates()))
	writeInt(uint64(f.Start()))
	type namedArc struct {
		name string
		to   State
	}
	for s := 0; s < f.NumStates(); s++ {
		var arcs []namedArc
		for _, a := range f.Arcs(State(s)) {
			arcs = append(arcs, namedArc{f.Alphabet().Name(a.Act), a.To})
		}
		sort.Slice(arcs, func(i, j int) bool {
			if arcs[i].name != arcs[j].name {
				return arcs[i].name < arcs[j].name
			}
			return arcs[i].to < arcs[j].to
		})
		writeInt(uint64(len(arcs)))
		for _, a := range arcs {
			h.Write([]byte(a.name + "\x00"))
			writeInt(uint64(a.to))
		}
		var names []string
		for _, id := range f.Ext(State(s)).IDs() {
			names = append(names, f.Vars().Name(id))
		}
		sort.Strings(names)
		writeInt(uint64(len(names)))
		for _, nm := range names {
			h.Write([]byte(nm + "\x00"))
		}
	}
	return h.Sum64()
}

// randomNamed builds a random process whose alphabet and variable table
// are interned in a random order, with names that sort differently from
// their interning order (non-ASCII included).
func randomNamed(rng *rand.Rand) *FSP {
	actions := []string{"a", "b", "zz", "ä", "tau", "a'", "B"}
	vars := []string{"x", "y", "ω"}
	b := NewBuilder("r")
	for _, i := range rng.Perm(len(actions)) {
		b.Action(actions[i])
	}
	for _, i := range rng.Perm(len(vars)) {
		if _, err := b.vars.Intern(vars[i]); err != nil {
			panic(err)
		}
	}
	n := 1 + rng.Intn(8)
	b.AddStates(n)
	b.SetStart(State(rng.Intn(n)))
	for j := rng.Intn(4 * n); j > 0; j-- {
		b.ArcName(State(rng.Intn(n)), actions[rng.Intn(len(actions))], State(rng.Intn(n)))
	}
	for s := 0; s < n; s++ {
		for _, v := range vars {
			if rng.Intn(3) == 0 {
				b.Extend(State(s), v)
			}
		}
	}
	return b.MustBuild()
}

// TestFingerprintMatchesReference: the rank-table walk hashes exactly the
// byte stream of the reference walk, and StructuralEqual agrees with
// comparing canonical texts, across random interning orders.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var prev *FSP
	for i := 0; i < 500; i++ {
		f := randomNamed(rng)
		if got, want := Fingerprint(f), referenceFingerprint(f, 0); got != want {
			t.Fatalf("process %d: Fingerprint %#x, reference %#x\n%s", i, got, want, FormatString(f))
		}
		if got, want := Fingerprint2(f), referenceFingerprint(f, 0x9e3779b97f4a7c15); got != want {
			t.Fatalf("process %d: Fingerprint2 %#x, reference %#x", i, got, want)
		}
		// A copy interned in another order is structurally equal and
		// hashes equal; the previous process almost never is.
		g := reinterned(rng, f)
		if !StructuralEqual(f, g) || !StructuralEqual(g, f) || Fingerprint(g) != Fingerprint(f) {
			t.Fatalf("process %d: reinterned copy not structurally equal\n%s", i, FormatString(f))
		}
		if prev != nil {
			same := referenceFingerprint(prev, 0) == referenceFingerprint(f, 0)
			if StructuralEqual(prev, f) != same || StructuralEqual(f, prev) != same {
				t.Fatalf("process %d: StructuralEqual disagrees with the reference hash (%v)", i, same)
			}
		}
		prev = f
	}
}

// reinterned copies f through a builder that interns its action and
// variable names in a random order.
func reinterned(rng *rand.Rand, f *FSP) *FSP {
	b := NewBuilder("copy")
	acts := f.Alphabet().Names()
	rng.Shuffle(len(acts), func(i, j int) { acts[i], acts[j] = acts[j], acts[i] })
	for _, a := range acts {
		b.Action(a)
	}
	vars := append([]string(nil), f.Vars().names...)
	rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	for _, v := range vars {
		if _, err := b.vars.Intern(v); err != nil {
			panic(err)
		}
	}
	b.AddStates(f.NumStates())
	b.SetStart(f.Start())
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(State(s)) {
			b.ArcName(State(s), f.Alphabet().Name(a.Act), a.To)
		}
		for _, id := range f.Ext(State(s)).IDs() {
			b.Extend(State(s), f.Vars().Name(id))
		}
	}
	return b.MustBuild()
}
