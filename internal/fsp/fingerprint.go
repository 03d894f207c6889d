package fsp

import (
	"math/bits"
	"slices"
	"strings"
)

// This file defines structural identity of FSPs: two processes are
// structurally equal when they have the same states, the same start, and
// state for state the same named arcs and extension variables — regardless
// of how their alphabets or variable tables happened to intern those names.
// The engine's artifact cache uses Fingerprint as a hash key and
// StructuralEqual to confirm, so parsing the same process text twice (two
// distinct *FSP pointers) still shares one set of cached artifacts.
//
// Both walk each state's arcs in (action name, target) order. Names are
// ranked once per call — rank r is the r-th name in sorted order — so a
// state's arcs become (rank, target) keys that are sorted only when the
// interning order disagrees with the name order, and extensions become
// rank bitmasks that enumerate in name order without sorting.

// ranks maps interned ids to name ranks and back for one name table.
type ranks struct {
	rank  []int32  // rank[id]
	names []string // names[rank]
}

func rankNames(names []string) ranks {
	order := make([]int32, len(names))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return strings.Compare(names[x], names[y]) })
	r := ranks{rank: make([]int32, len(names)), names: make([]string, len(names))}
	for k, id := range order {
		r.rank[id] = int32(k)
		r.names[k] = names[id]
	}
	return r
}

// arcKeys returns s's arcs as (rank << 32 | target) keys in ascending
// order: the (name, target) order, since ranks follow names.
func arcKeys(f *FSP, act ranks, s State, buf []uint64) []uint64 {
	buf = buf[:0]
	sorted := true
	for _, a := range f.adj[s] {
		k := uint64(act.rank[a.Act])<<32 | uint64(a.To)
		if len(buf) > 0 && k < buf[len(buf)-1] {
			sorted = false
		}
		buf = append(buf, k)
	}
	if !sorted {
		slices.Sort(buf)
	}
	return buf
}

// extRanks returns the extension of s as a bitmask over variable ranks;
// ascending bits enumerate its names in sorted order.
func extRanks(f *FSP, vars ranks, s State) uint64 {
	var m uint64
	for e := uint64(f.ext[s]); e != 0; e &= e - 1 {
		m |= 1 << uint(vars.rank[bits.TrailingZeros64(e)])
	}
	return m
}

// Fingerprint returns a structural hash of f: equal for structurally equal
// processes (see StructuralEqual), and invariant under the interning order
// of the alphabet and variable table. The process name is deliberately not
// hashed — renaming a process does not change what it is.
func Fingerprint(f *FSP) uint64 { return fingerprint(f, 0) }

// Fingerprint2 is a second structural hash over the same canonical walk,
// independent of Fingerprint by a seed perturbation. The persistent
// artifact store keys entries by Fingerprint and records Fingerprint2
// inside each entry as a collision guard: a different process that happens
// to collide on the 64-bit key is rejected on the second hash instead of
// yielding someone else's artifact.
func Fingerprint2(f *FSP) uint64 { return fingerprint(f, 0x9e3779b97f4a7c15) }

// fnv64a is an inline 64-bit FNV-1a state, byte for byte what hash/fnv's
// New64a computes.
type fnv64a uint64

const (
	fnvOffset64 fnv64a = 14695981039346656037
	fnvPrime64  fnv64a = 1099511628211
)

// word hashes v as 8 little-endian bytes.
func (h fnv64a) word(v uint64) fnv64a {
	for i := 0; i < 8; i++ {
		h = (h ^ fnv64a(byte(v))) * fnvPrime64
		v >>= 8
	}
	return h
}

// name hashes s followed by a 0 terminator.
func (h fnv64a) name(s string) fnv64a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv64a(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // h ^ 0 == h
}

// fingerprint hashes the canonical walk: optional seed word, state count,
// start, then per state the arc count and each arc's name and target, and
// the extension size and each variable name, arcs and names in name order.
func fingerprint(f *FSP, seed uint64) uint64 {
	h := fnvOffset64
	if seed != 0 {
		h = h.word(seed)
	}
	h = h.word(uint64(f.NumStates()))
	h = h.word(uint64(f.start))
	act, vars := rankNames(f.alphabet.names), rankNames(f.vars.names)
	var keys []uint64
	for s := range f.adj {
		keys = arcKeys(f, act, State(s), keys)
		h = h.word(uint64(len(keys)))
		for _, k := range keys {
			h = h.name(act.names[k>>32])
			h = h.word(k & 0xffffffff)
		}
		m := extRanks(f, vars, State(s))
		h = h.word(uint64(bits.OnesCount64(m)))
		for ; m != 0; m &= m - 1 {
			h = h.name(vars.names[bits.TrailingZeros64(m)])
		}
	}
	return uint64(h)
}

// StructuralEqual reports whether f and g are the same process up to
// interning order: same state count, same start state, and for every state
// the same set of (action name, target) arcs and the same extension
// variable names. Structurally equal processes are indistinguishable to
// every equivalence checker in this repository, so derived artifacts
// (closures, saturations, quotients, indexes) are interchangeable.
func StructuralEqual(f, g *FSP) bool {
	if f == g {
		return true
	}
	if f.NumStates() != g.NumStates() || f.start != g.start {
		return false
	}
	// Rank both tables by name; an f rank maps onto the g rank of the
	// same name, or -1 when g lacks the name. f's keys translated this
	// way stay in ascending order, so sorted key lists compare directly.
	fa, ga := rankNames(f.alphabet.names), rankNames(g.alphabet.names)
	actTo := translate(fa, g.alphabet.index)
	fv := rankNames(f.vars.names)
	varTo := translate(fv, g.vars.index)
	var fk, gk []uint64
	for s := range f.adj {
		fk = arcKeys(f, fa, State(s), fk)
		gk = arcKeys(g, ga, State(s), gk)
		if len(fk) != len(gk) {
			return false
		}
		for i, k := range fk {
			id := actTo[k>>32]
			if id < 0 || uint64(ga.rank[id])<<32|k&0xffffffff != gk[i] {
				return false
			}
		}
		// The same names, as g ids, must form g's extension.
		var want VarSet
		for m := extRanks(f, fv, State(s)); m != 0; m &= m - 1 {
			id := varTo[bits.TrailingZeros64(m)]
			if id < 0 {
				return false
			}
			want = want.With(VarID(id))
		}
		if want != g.ext[s] {
			return false
		}
	}
	return true
}

// translate maps each rank of r onto the id the same name has in index,
// or -1 when index lacks it.
func translate[T ~int32](r ranks, index map[string]T) []int32 {
	out := make([]int32, len(r.names))
	for k, nm := range r.names {
		out[k] = -1
		if id, ok := index[nm]; ok {
			out[k] = int32(id)
		}
	}
	return out
}
