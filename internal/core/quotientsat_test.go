package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// withExtraVars gives f extension variables beyond the standard x: each
// state gains y and z with probability 1/3 each, so ≈-classes must also
// separate states by those.
func withExtraVars(rng *rand.Rand, f *fsp.FSP) *fsp.FSP {
	var sb strings.Builder
	sb.WriteString(fsp.FormatString(f))
	for s := 0; s < f.NumStates(); s++ {
		for _, v := range []string{"y", "z"} {
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "ext %d %s\n", s, v)
			}
		}
	}
	g, err := fsp.ParseString(sb.String())
	if err != nil {
		panic(err)
	}
	return g
}

// rootInClassTau reports whether f's start has a tau move into its own
// ≈-class, the case the congruence quotient repairs with a root loop.
func rootInClassTau(t *testing.T, f *fsp.FSP) bool {
	part, err := core.WeakPartition(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, to := range f.Dest(f.Start(), fsp.Tau) {
		if part.Same(int32(f.Start()), int32(to)) {
			return true
		}
	}
	return false
}

// TestQuotientWeakSaturatedIsSaturation: the saturated form that
// QuotientWeakSaturated returns — sat(p) collapsed along the ≈-partition,
// never saturated again — is structurally fsp.Saturate of the quotient,
// and the quotient is QuotientWeak's. Random processes cover tau shares
// up to 0.8, variables beyond x, and (through fluff) roots with a tau
// into their own class.
func TestQuotientWeakSaturatedIsSaturation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rootCases := 0
	for i := 0; i < 300; i++ {
		tau := []float64{0.2, 0.5, 0.8}[i%3]
		p := gen.Random(rng, 2+rng.Intn(14), 2+rng.Intn(40), 1+rng.Intn(3), tau)
		if i%2 == 1 {
			p = fluff(rng, p)
		}
		p = withExtraVars(rng, p)
		if rootInClassTau(t, p) {
			rootCases++
		}

		q, sat, eps, err := core.QuotientWeakSaturated(p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		plain, _, err := core.QuotientWeak(p)
		if err != nil {
			t.Fatal(err)
		}
		if !fsp.StructuralEqual(q, plain) {
			t.Fatalf("case %d: QuotientWeakSaturated's quotient differs from QuotientWeak's\n%s", i, fsp.FormatString(p))
		}
		want, wantEps, err := fsp.Saturate(q)
		if err != nil {
			t.Fatal(err)
		}
		if !fsp.StructuralEqual(sat, want) {
			t.Fatalf("case %d: collapsed saturation differs from saturating the quotient\nprocess:\n%s\ngot:\n%s\nwant:\n%s",
				i, fsp.FormatString(p), fsp.FormatString(sat), fsp.FormatString(want))
		}
		if sat.Alphabet().Name(eps) != fsp.EpsilonName || want.Alphabet().Name(wantEps) != fsp.EpsilonName {
			t.Fatalf("case %d: epsilon action is %q", i, sat.Alphabet().Name(eps))
		}
	}
	if rootCases == 0 {
		t.Fatal("no case had a root with an in-class tau")
	}
	t.Logf("%d of 300 cases had a root with an in-class tau", rootCases)
}
