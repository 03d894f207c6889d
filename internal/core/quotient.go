package core

import (
	"fmt"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// QuotientStrong returns the quotient of f modulo strong equivalence: one
// state per equivalence class, with an arc (B, a, C) whenever some (hence,
// by bisimilarity, every) member of B has an a-arc into C. The quotient is
// the state-minimal process strongly equivalent to f, the CCS analogue of
// DFA minimization. The returned map sends each original state to its class.
func QuotientStrong(f *fsp.FSP, opts ...Option) (*fsp.FSP, []fsp.State, error) {
	p := StrongPartition(f, opts...)
	q, m, err := quotient(f, p)
	if err != nil {
		return nil, nil, fmt.Errorf("strong quotient: %w", err)
	}
	return q, m, nil
}

// quotient collapses f along an equivalence partition that is a strong
// bisimulation. Every class member has the same arcs up to classes, so a
// single representative per class suffices.
func quotient(f *fsp.FSP, p *partition.Partition) (*fsp.FSP, []fsp.State, error) {
	b := fsp.NewBuilderWith(f.Name()+"/~", f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(p.NumBlocks())
	b.SetStart(fsp.State(p.Block(int32(f.Start()))))

	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	mapping := make([]fsp.State, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		blk := p.Block(int32(s))
		mapping[s] = fsp.State(blk)
		if reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}
	for blk, rep := range reps {
		for _, a := range f.Arcs(rep) {
			b.Arc(fsp.State(blk), a.Act, fsp.State(p.Block(int32(a.To))))
		}
		for _, id := range f.Ext(rep).IDs() {
			b.Extend(fsp.State(blk), f.Vars().Name(id))
		}
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return q, mapping, nil
}

// QuotientWeak returns a process observationally equivalent to f with one
// state per ≈-class. Arcs are derived from the saturated FSP of a class
// representative: weak sigma-derivatives become sigma-arcs and weak epsilon
// derivatives that leave the class become tau-arcs. The result is
// tau-minimal in the sense that tau arcs only connect distinct classes.
func QuotientWeak(f *fsp.FSP, opts ...Option) (*fsp.FSP, []fsp.State, error) {
	q, _, _, m, err := weakQuotient(f, "/≈", false, false, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("weak quotient: %w", err)
	}
	return q, m, nil
}

// QuotientWeakSaturated is QuotientWeak that also returns the quotient's
// saturated form P-hat (Theorem 4.1(a)) and its epsilon action, for
// callers that go on to decide ≈ on the quotient. The saturated form is
// not recomputed: it is sat(f) collapsed along the ≈-partition, which
// equals fsp.Saturate of the quotient because the partition is a strong
// bisimulation on sat(f) — sat(f/≈) = sat(f)/≈.
func QuotientWeakSaturated(f *fsp.FSP, opts ...Option) (q, sat *fsp.FSP, eps fsp.Action, err error) {
	q, sat, eps, _, err = weakQuotient(f, "/≈", false, true, opts)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("weak quotient: %w", err)
	}
	return q, sat, eps, nil
}

// QuotientCongruence returns a process observation-congruent (≈ᶜ) to f.
// It is the ≈-quotient except possibly at the root: merging the start
// state into its ≈-class can erase an initial tau (the tau·a ≈ a but
// tau·a ≉ᶜ a separation), so when the start has a direct tau move into
// its own class the quotient root gets a tau self-loop, which restores
// the strengthened root condition without adding a state. The result
// therefore has exactly one state per ≈-class — it is ≈ᶜ-minimal: no two
// distinct output states are related by ≈ᶜ (they are not even ≈, being
// distinct classes, and ≈ᶜ ⊆ ≈).
//
// WithFreshRootQuotient restores the legacy shape (fresh duplicated root,
// one extra state) for baseline comparisons.
//
// ≈ᶜ is a congruence for every CCS operator, so the output can replace f
// inside any compose.Network (composition, restriction, relabeling) for
// any equivalence coarser than ≈ᶜ — the soundness fact behind the
// engine's minimize-then-compose pipeline.
func QuotientCongruence(f *fsp.FSP, opts ...Option) (*fsp.FSP, []fsp.State, error) {
	q, _, _, m, err := weakQuotient(f, "/≈ᶜ", true, false, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("congruence quotient: %w", err)
	}
	return q, m, nil
}

// weakQuotient collapses f along the ≈-partition of its states. The
// partition is a strong bisimulation on the saturated form sat(f), so one
// representative per class gives each class's arcs in sat(f)/≈; the
// quotient keeps their sigma arcs and turns their epsilon arcs that leave
// the class into tau arcs. With withSat set, sat(f)/≈ is built as a
// process first, the quotient is read off it, and it is returned too
// (with the epsilon action): it is the saturation of the plain
// ≈-quotient. Otherwise it is never built. With rootFix set the quotient
// additionally preserves observation congruence:
//
//   - If the start state p0 has no direct tau into its own ≈-class, the
//     plain quotient start Q0 already satisfies the root condition: every
//     tau arc of Q0 comes from a representative's epsilon derivative that
//     leaves the class, which p0 matches with a nonempty tau path, and a
//     stable p0 yields a stable Q0 (p0 could not leave its class silently).
//   - Otherwise Q0 gets a tau self-loop: p0's in-class tau is matched by
//     Q0 --tau--> Q0 (nonempty, derivative Q0 ≈ p0's in-class derivative),
//     and the loop itself is matched by that same in-class tau of p0.
//     Hence Q0 ≈ᶜ p0, at zero extra states. The loop is never redundant:
//     quotient tau arcs only connect distinct classes, and a nonempty tau
//     cycle Q0 → … → Q0 through other classes cannot exist (states with
//     mutual eps-reachability are weakly equivalent, so such classes
//     would have merged) — the root class can only witness the
//     strengthened root condition via the loop itself.
//   - Under WithFreshRootQuotient the legacy shape is produced instead: a
//     fresh root r duplicating the root class's arcs plus an explicit tau
//     arc into the root class C. p0's in-class tau is matched by
//     r --tau--> C (members ≈ C), r's copied arcs are weak moves of p0's
//     class, and r's extra tau is matched by p0's own in-class tau move.
func weakQuotient(f *fsp.FSP, suffix string, rootFix, withSat bool, opts []Option) (q, satQ *fsp.FSP, eps fsp.Action, mapping []fsp.State, err error) {
	cfg := newConfig(opts)
	sat, eps, err := fsp.Saturate(f)
	if err != nil {
		return nil, nil, 0, nil, err
	}
	p := StrongPartition(sat, opts...)

	rootBlk := p.Block(int32(f.Start()))
	rootTau := false
	if rootFix {
		for _, t := range f.Dest(f.Start(), fsp.Tau) {
			if p.Block(int32(t)) == rootBlk {
				rootTau = true
				break
			}
		}
	}
	legacyRoot := rootTau && cfg.freshRoot

	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	mapping = make([]fsp.State, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		blk := p.Block(int32(s))
		mapping[s] = fsp.State(blk)
		if reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}

	// classArcs returns class blk's arcs in sat(f)/≈: read from satQ once
	// it is built, else collapsed from the representative's sat(f) row
	// into a reused buffer (Build drops the duplicates the collapse makes).
	var row []fsp.Arc
	classArcs := func(blk fsp.State) []fsp.Arc {
		if satQ != nil {
			return satQ.Arcs(blk)
		}
		row = row[:0]
		for _, a := range sat.Arcs(reps[blk]) {
			row = append(row, fsp.Arc{Act: a.Act, To: fsp.State(p.Block(int32(a.To)))})
		}
		return row
	}
	// Both outputs share one variable table (cloned from f, so ids carry
	// over); the saturated alphabet is sat's own private clone.
	vars := f.Vars().Clone()
	if withSat {
		sb := fsp.NewBuilderWith(f.Name()+suffix+"^", sat.Alphabet(), vars)
		sb.AddStates(p.NumBlocks())
		sb.SetStart(fsp.State(rootBlk))
		for blk, rep := range reps {
			for _, a := range classArcs(fsp.State(blk)) {
				sb.Arc(fsp.State(blk), a.Act, a.To)
			}
			for _, id := range f.Ext(rep).IDs() {
				sb.Extend(fsp.State(blk), vars.Name(id))
			}
		}
		if satQ, err = sb.Build(); err != nil {
			return nil, nil, 0, nil, err
		}
	}

	b := fsp.NewBuilderWith(f.Name()+suffix, f.Alphabet().Clone(), vars)
	b.AddStates(p.NumBlocks())
	root := fsp.State(rootBlk)
	if legacyRoot {
		root = b.AddState()
	}
	b.SetStart(root)
	// emit gives state at the arcs of class blk. Epsilon is the highest
	// action, so the tau arcs are written first to keep (Act, To) order
	// when the class's arcs are sorted.
	emit := func(at, blk fsp.State) {
		arcs := classArcs(blk)
		for _, a := range arcs {
			// Weak epsilon derivatives become tau edges, but only when
			// they leave the class (self tau loops are observationally
			// vacuous).
			if a.Act == eps && a.To != blk {
				b.Arc(at, fsp.Tau, a.To)
			}
		}
		for _, a := range arcs {
			if a.Act != eps {
				b.Arc(at, a.Act, a.To)
			}
		}
		for _, id := range f.Ext(reps[blk]).IDs() {
			b.Extend(at, vars.Name(id))
		}
	}
	for blk := range reps {
		emit(fsp.State(blk), fsp.State(blk))
	}
	switch {
	case legacyRoot:
		// The fresh root duplicates the root class's arcs (dropping the
		// same in-class epsilons) and adds the explicit tau into it.
		emit(root, fsp.State(rootBlk))
		b.Arc(root, fsp.Tau, fsp.State(rootBlk))
	case rootTau:
		// Minimal form: the self-loop restores the root condition in
		// place. emit never produces it (in-class epsilons are dropped),
		// so this is the root class's only tau back to itself.
		b.Arc(root, fsp.Tau, root)
	}
	if q, err = b.Build(); err != nil {
		return nil, nil, 0, nil, err
	}
	return q, satQ, eps, mapping, nil
}
