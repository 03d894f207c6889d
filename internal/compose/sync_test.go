package compose_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// loop builds a cycle of len(actions) accepting states, each arc consuming
// one action in order; with one action it is a single self-loop.
func loop(name string, actions ...string) *fsp.FSP {
	b := fsp.NewBuilder(name)
	b.AddStates(len(actions))
	for i, a := range actions {
		b.ArcName(fsp.State(i), a, fsp.State((i+1)%len(actions)))
		b.Accept(fsp.State(i))
	}
	return b.MustBuild()
}

type emission struct {
	label int32
	vec   string
}

// collectSucc drains Succ at cur into an ordered emission list.
func collectSucc(e *compose.Expansion, cur []int32) []emission {
	scratch := make([]int32, e.K())
	var out []emission
	e.Succ(cur, scratch, func(label int32, succ []int32) bool {
		out = append(out, emission{label, fmt.Sprint(succ)})
		return true
	})
	return out
}

// pairwiseRef re-implements the pre-sync-table CCS product semantics —
// interleavings of unhidden actions plus pairwise complementary handshakes
// — independently of the production enumerator, in the exact emission
// order the explorer historically used. It is the oracle for the
// byte-identical-default acceptance criterion.
func pairwiseRef(e *compose.Expansion, cur []int32) []emission {
	k := e.K()
	succ := make([]int32, k)
	var out []emission
	for i := 0; i < k; i++ {
		for _, a := range e.Trans[i][cur[i]] {
			if a.Label == 0 || !e.Hidden[a.Label] {
				copy(succ, cur)
				succ[i] = a.To
				out = append(out, emission{a.Label, fmt.Sprint(succ)})
			}
			if a.Label == 0 {
				continue
			}
			co := e.CoOf[a.Label]
			if co < 0 {
				continue
			}
			for j := i + 1; j < k; j++ {
				for _, b := range e.Trans[j][cur[j]] {
					if b.Label != co {
						continue
					}
					copy(succ, cur)
					succ[i] = a.To
					succ[j] = b.To
					out = append(out, emission{0, fmt.Sprint(succ)})
				}
			}
		}
	}
	return out
}

// reachable walks the product BFS through Succ and returns every reachable
// state vector in discovery order.
func reachable(t *testing.T, e *compose.Expansion) [][]int32 {
	t.Helper()
	start := append([]int32(nil), e.Starts...)
	seen := map[string]bool{fmt.Sprint(start): true}
	queue := [][]int32{start}
	scratch := make([]int32, e.K())
	for head := 0; head < len(queue); head++ {
		e.Succ(queue[head], scratch, func(_ int32, succ []int32) bool {
			key := fmt.Sprint(succ)
			if !seen[key] {
				seen[key] = true
				queue = append(queue, append([]int32(nil), succ...))
			}
			return true
		})
		if head > 1<<16 {
			t.Fatal("product too large for the differential walk")
		}
	}
	return queue
}

// TestDefaultTableMatchesPairwise is the acceptance differential: on every
// network without a sync table — the entire existing gallery plus random
// networks — the refactored enumerator must emit exactly the pairwise CCS
// successor stream, same labels, same vectors, same order, at every
// reachable product state. Byte-identical explorer output follows, since
// both materializing sinks consume this stream in discovery order.
func TestDefaultTableMatchesPairwise(t *testing.T) {
	var nets []*compose.Network
	for _, entry := range gen.NetworkGallery() {
		nets = append(nets, entry.Net)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 15; i++ {
		nets = append(nets, gen.RandomNetwork(rng))
	}
	for _, net := range nets {
		if len(net.Sync) != 0 {
			t.Fatalf("%s: existing gallery entry unexpectedly carries a sync table", net)
		}
		e, err := net.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Vectors) != 0 {
			t.Fatalf("%s: default expansion has %d sync vectors", net, len(e.Vectors))
		}
		for _, cur := range reachable(t, e) {
			got, want := collectSucc(e, cur), pairwiseRef(e, cur)
			if len(got) != len(want) {
				t.Fatalf("%s at %v: %d successors, pairwise reference has %d", net, cur, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s at %v successor %d: got %v, pairwise reference %v", net, cur, j, got[j], want[j])
				}
			}
		}
	}
}

// vectorRef brute-forces the sync-vector semantics independently of the
// production matcher: for every vector, every injective assignment of
// parts to components with an enabled arc choice per part, deduplicated by
// the normalized (component, arc) choice set. Returned together with the
// pairwise reference as an order-free multiset.
func vectorRef(t *testing.T, net *compose.Network, e *compose.Expansion, cur []int32) []emission {
	t.Helper()
	out := pairwiseRef(e, cur)
	ids := map[string]int32{}
	for l, nm := range e.Labels {
		ids[nm] = int32(l)
	}
	hidden := map[string]bool{}
	for _, h := range net.Hidden {
		hidden[h] = true
		hidden[fsp.CoName(h)] = true
	}
	k := e.K()
	for _, r := range net.Sync {
		res := int32(0)
		if !r.Tau() {
			var ok bool
			if res, ok = ids[r.Result]; !ok {
				t.Fatalf("result %q not interned", r.Result)
			}
			if hidden[r.Result] {
				continue // restricted result: the vector never fires
			}
		}
		type choice struct {
			comp int
			to   int32
		}
		seen := map[string]bool{}
		var pick func(p int, taken []choice)
		pick = func(p int, taken []choice) {
			if p == len(r.Parts) {
				norm := append([]choice(nil), taken...)
				sort.Slice(norm, func(x, y int) bool { return norm[x].comp < norm[y].comp })
				key := fmt.Sprint(norm)
				if seen[key] {
					return
				}
				seen[key] = true
				succ := append([]int32(nil), cur...)
				for _, c := range norm {
					succ[c.comp] = c.to
				}
				out = append(out, emission{res, fmt.Sprint(succ)})
				return
			}
			l, ok := ids[r.Parts[p]]
			if !ok {
				return
			}
		next:
			for i := 0; i < k; i++ {
				for _, c := range taken {
					if c.comp == i {
						continue next
					}
				}
				for _, a := range e.Trans[i][cur[i]] {
					if a.Label == l {
						pick(p+1, append(taken, choice{i, a.To}))
					}
				}
			}
		}
		pick(0, nil)
	}
	return out
}

func sortEmissions(es []emission) {
	sort.Slice(es, func(x, y int) bool {
		if es[x].label != es[y].label {
			return es[x].label < es[y].label
		}
		return es[x].vec < es[y].vec
	})
}

// choice builds a process that can take any one of several parts of a
// vector: from its base, action i leads to state i+1, which returns to the
// base by tau. Distinct targets keep the brute-force reference, which
// tells choices apart by (component, target), exact on it.
func choice(name string, actions ...string) *fsp.FSP {
	b := fsp.NewBuilder(name)
	b.AddStates(1 + len(actions))
	b.Accept(0)
	for i, a := range actions {
		b.ArcName(0, a, fsp.State(i+1))
		b.ArcName(fsp.State(i+1), fsp.TauName, 0)
		b.Accept(fsp.State(i + 1))
	}
	return b.MustBuild()
}

// syncNets builds a spread of sync-table networks covering the matcher's
// edge cases: 3-way rendezvous, equal-label parts (quorum shape), parts
// with several arcs per state, hidden parts, visible and hidden results,
// several rules at once, parts no component carries, one component
// carrying two different parts of a vector, carriers that enable a part
// at some states only, more equal parts than carriers, and small
// instances of every protocol of gen.ProtocolGallery.
func syncNets() []*compose.Network {
	a3 := func() *fsp.FSP { return loop("A", "a") }
	nets := []*compose.Network{
		// Three-way internal rendezvous on distinct channels.
		compose.New("tri", loop("P", "x"), loop("Q", "y"), loop("R", "z")).
			AddSync("", "x", "y", "z").Hide("x", "y", "z"),
		// Quorum shape: 2 of 3 equal-label parts, visible result.
		compose.New("quorum", a3(), a3(), a3()).
			AddSync("go", "a", "a").Hide("a"),
		// Full-width equal parts.
		compose.New("bcast", a3(), a3(), a3()).
			AddSync("all", "a", "a", "a").Hide("a"),
		// Visible parts (not hidden): rendezvous and interleavings coexist.
		compose.New("open", a3(), a3()).AddSync("both", "a", "a"),
		// Hidden visible result: the vector must be pruned.
		compose.New("pruned", a3(), a3()).AddSync("go", "a", "a").Hide("a", "go"),
		// A part nobody carries: the rule can never fire.
		compose.New("orphan", a3(), a3()).AddSync("", "a", "ghost"),
		// Two rules sharing parts, mixed results.
		compose.New("mixed", loop("P", "x", "a"), loop("Q", "y", "a"), loop("R", "a")).
			AddSync("", "x", "y").AddSync("done", "a", "a", "a").Hide("x", "y", "a"),
		// Branching arcs on the part label: multiplicities must multiply.
		func() *compose.Network {
			b := fsp.NewBuilder("fork")
			b.AddStates(3)
			b.ArcName(0, "a", 1)
			b.ArcName(0, "a", 2)
			b.ArcName(1, "a", 0)
			b.ArcName(2, "a", 0)
			b.Accept(0).Accept(1).Accept(2)
			f := b.MustBuild()
			return compose.New("fork2", f, f).AddSync("go", "a", "a").Hide("a")
		}(),
		// Sync on top of a handshake-capable pair: both synchronization
		// mechanisms coexist at one state.
		compose.New("hybrid", sender(), receiver(), loop("W", "b")).
			AddSync("joint", "b'", "b").Hide("a", "b"),
		// One component carries both labels of the vector: it may take
		// either part but never both, across the runs of equal parts.
		compose.New("overlap", choice("AB", "a", "b"), loop("A", "a"), loop("B", "b"), choice("AB2", "a", "b")).
			AddSync("ab", "a", "b").AddSync("aab", "a", "a", "b").Hide("a", "b"),
		// Carriers that enable the part only at some of their states.
		compose.New("partial", loop("P", "a", "x"), loop("Q", "a"), loop("R", "y", "a", "z")).
			AddSync("go", "a", "a").AddSync("all", "a", "a", "a").Hide("a"),
		// More equal-label parts than carriers: the vector never fires.
		compose.New("deficit", a3(), a3()).AddSync("", "a", "a", "a").Hide("a"),
	}
	nets = append(nets,
		gen.TwoPhaseCommit(4, 0),
		gen.BuggyTwoPhaseCommit(4),
		gen.ElectionRing(4),
		gen.NoAckElectionRing(4),
		gen.ByzantineQuorum(4, 1, 1),
		gen.ByzantineQuorum(4, 1, 2),
		gen.ByzantineQuorumSwarm(5, 1, 2, 2),
	)
	return nets
}

// TestVectorSuccMatchesBruteForce pins vector-mode Succ against the
// independent brute-force reference at every reachable state of every
// sync network, as an order-free multiset (the production order is pinned
// separately by TestAppendSuccMatchesSucc, which includes sync networks).
func TestVectorSuccMatchesBruteForce(t *testing.T) {
	for _, net := range syncNets() {
		e, err := net.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, cur := range reachable(t, e) {
			got := collectSucc(e, cur)
			want := vectorRef(t, net, e, cur)
			sortEmissions(got)
			sortEmissions(want)
			if len(got) != len(want) {
				t.Fatalf("%s at %v: Succ emits %d, brute force %d\ngot  %v\nwant %v", net, cur, len(got), len(want), got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s at %v: emission %d: Succ %v, brute force %v", net, cur, j, got[j], want[j])
				}
			}
		}
	}
}

// vectorOrderRef spells out Succ's pinned emission order without the
// carrier index or any pruning: the pairwise stream, then for each vector
// in table order every assignment of its sorted parts to distinct
// components — a run of equal parts on strictly increasing components —
// in lexicographic order of the (component, arc) choice of part 0, then
// part 1, and so on.
func vectorOrderRef(e *compose.Expansion, cur []int32) []emission {
	out := pairwiseRef(e, cur)
	succ := append([]int32(nil), cur...)
	used := make([]bool, e.K())
	for _, v := range e.Vectors {
		var fill func(p, prev int)
		fill = func(p, prev int) {
			if p == len(v.Parts) {
				out = append(out, emission{v.Result, fmt.Sprint(succ)})
				return
			}
			lo := 0
			if p > 0 && v.Parts[p-1] == v.Parts[p] {
				lo = prev + 1
			}
			for i := lo; i < e.K(); i++ {
				if used[i] {
					continue
				}
				used[i] = true
				for _, a := range e.Trans[i][cur[i]] {
					if a.Label == v.Parts[p] {
						succ[i] = a.To
						fill(p+1, i)
					}
				}
				succ[i] = cur[i]
				used[i] = false
			}
		}
		fill(0, -1)
	}
	return out
}

// TestVectorSuccOrder pins the order half of Succ's stream contract on
// sync networks, which TestVectorSuccMatchesBruteForce checks only as a
// multiset: at every reachable state the emissions must follow
// vectorOrderRef exactly.
func TestVectorSuccOrder(t *testing.T) {
	for _, net := range syncNets() {
		e, err := net.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for _, cur := range reachable(t, e) {
			got, want := collectSucc(e, cur), vectorOrderRef(e, cur)
			if len(got) != len(want) {
				t.Fatalf("%s at %v: Succ emits %d, ordered reference %d", net, cur, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s at %v successor %d: Succ %v, ordered reference %v", net, cur, j, got[j], want[j])
				}
			}
		}
	}
}

// TestSyncBatchMatchesStream extends the batched-vs-streamed differential
// to sync networks: AppendSucc and Succ must agree exactly, order
// included, so the otf game sees the same successor stream as the
// materializing explorer.
func TestSyncBatchMatchesStream(t *testing.T) {
	for _, net := range syncNets() {
		e, err := net.Expand()
		if err != nil {
			t.Fatal(err)
		}
		var b compose.SuccBatch
		for _, cur := range reachable(t, e) {
			want := collectSucc(e, cur)
			b.Reset()
			e.AppendSucc(cur, &b)
			if b.Len() != len(want) {
				t.Fatalf("%s at %v: AppendSucc %d successors, Succ %d", net, cur, b.Len(), len(want))
			}
			for j := 0; j < b.Len(); j++ {
				got := emission{b.Labels[j], fmt.Sprint(b.Vec(j))}
				if got != want[j] {
					t.Fatalf("%s at %v successor %d: AppendSucc %v, Succ %v", net, cur, j, got, want[j])
				}
			}
		}
	}
}

// TestSyncProduct pins the user-visible semantics of a three-way
// rendezvous end to end through FSP(): with the part channels hidden, the
// only transitions left are the joint steps.
func TestSyncProduct(t *testing.T) {
	net := compose.New("tri",
		loop("P", "x"), loop("Q", "y"), loop("R", "z")).
		AddSync("go", "x", "y", "z").Hide("x", "y", "z")
	f, err := net.FSP()
	if err != nil {
		t.Fatal(err)
	}
	if f.NumStates() != 1 || f.NumTransitions() != 1 {
		t.Fatalf("3-way rendezvous product has %d states / %d arcs, want 1/1", f.NumStates(), f.NumTransitions())
	}
	if nm := f.Alphabet().Name(f.Arcs(0)[0].Act); nm != "go" {
		t.Fatalf("joint step labelled %q, want go", nm)
	}
	// Same network without the rule deadlocks outright: no co-names, no
	// handshake, everything hidden.
	dead, err := compose.New("tri0", loop("P", "x"), loop("Q", "y"), loop("R", "z")).
		Hide("x", "y", "z").FSP()
	if err != nil {
		t.Fatal(err)
	}
	if dead.NumTransitions() != 0 {
		t.Fatalf("vector-less triple has %d transitions, want deadlock", dead.NumTransitions())
	}
	// Tau result: the joint step is internal.
	tri, err := compose.New("triT", loop("P", "x"), loop("Q", "y"), loop("R", "z")).
		AddSync("tau", "x", "y", "z").Hide("x", "y", "z").FSP()
	if err != nil {
		t.Fatal(err)
	}
	if tri.NumTransitions() != 1 || tri.Arcs(0)[0].Act != fsp.Tau {
		t.Fatal("tau-result rendezvous did not produce a single internal step")
	}
}

// TestSyncValidate exercises the sync-table error paths.
func TestSyncValidate(t *testing.T) {
	cases := []struct {
		name string
		net  *compose.Network
	}{
		{"one part", compose.New("s", sender()).AddSync("", "a")},
		{"tau part", compose.New("s", sender(), receiver()).AddSync("", "tau", "a")},
		{"empty part", compose.New("s", sender(), receiver()).AddSync("", "", "a")},
		{"epsilon part", compose.New("s", sender(), receiver()).AddSync("", "ε", "a")},
		{"epsilon result", compose.New("s", sender(), receiver()).AddSync("ε", "a", "b")},
	}
	for _, tc := range cases {
		if err := tc.net.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid sync table", tc.name)
		}
		if _, err := tc.net.FSP(); err == nil {
			t.Errorf("%s: FSP accepted an invalid sync table", tc.name)
		}
	}
}

// TestSyncMinimizeThenCompose is the compositionality differential on
// sync networks: quotienting components by ≈ᶜ before composing must
// preserve ≈ and ≈ᶜ of the product — the soundness claim the engine's
// minimize-then-compose pipeline relies on for vector composition.
func TestSyncMinimizeThenCompose(t *testing.T) {
	for _, net := range syncNets() {
		flat, err := net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		min := &compose.Network{Name: net.Name, Hidden: net.Hidden, Sync: net.Sync}
		for _, comp := range net.Components {
			q, _, err := core.QuotientCongruence(comp.P)
			if err != nil {
				t.Fatal(err)
			}
			min.Add(q, comp.Relabel)
		}
		mtc, err := min.FSP()
		if err != nil {
			t.Fatal(err)
		}
		weak, err := core.WeakEquivalent(flat, mtc)
		if err != nil {
			t.Fatal(err)
		}
		cong, err := core.ObservationCongruent(flat, mtc)
		if err != nil {
			t.Fatal(err)
		}
		if !weak || !cong {
			t.Fatalf("%s: minimize-then-compose diverges from flat product (≈=%v ≈ᶜ=%v)", net, weak, cong)
		}
	}
}
