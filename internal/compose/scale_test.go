package compose_test

import (
	"context"
	"testing"
	"time"

	"ccs/internal/compose"
	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// TestSyncVectorScaling is the regression test for sync-vector matching
// at protocol widths where any search over subsets of carriers is hopeless:
// a 41-way commit rendezvous, a 40-way election ratification and a starved
// 21-of-31 quorum. Each network's product is tiny, so both engine routes
// finish in milliseconds when successor enumeration is proportional to
// the firings it emits; a matcher that backtracks over every increasing
// sequence of carriers doubles its cost per participant and would run for
// hours. Each case must agree with its documented verdict on both routes,
// take the direct on-the-fly route, and finish within 30 s.
func TestSyncVectorScaling(t *testing.T) {
	cases := []struct {
		name string
		net  *compose.Network
		spec *fsp.FSP
		want bool
	}{
		{"2pc-40-commit", gen.TwoPhaseCommit(40, 0), gen.DecisionSpec("commit"), true},
		{"leader-ring-40", gen.ElectionRing(40), gen.ElectionSpec(), true},
		{"bq-31-10-starved", gen.ByzantineQuorum(31, 10, 11), gen.DecideSpec(), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			type result struct {
				mtc, otf bool
				info     engine.OTFInfo
				err      error
			}
			done := make(chan result, 1)
			go func() {
				var r result
				c := engine.New()
				if r.mtc, r.err = c.CheckNetwork(ctx, tc.net, tc.spec, engine.Weak, 0); r.err == nil {
					r.otf, r.info, r.err = c.CheckNetworkOTFInfo(ctx, tc.net, tc.spec, engine.Weak, 0)
				}
				done <- r
			}()
			var r result
			select {
			case r = <-done:
			case <-ctx.Done():
				t.Fatalf("%s not decided within 30 s", tc.name)
			}
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.mtc != tc.want || r.otf != tc.want {
				t.Fatalf("minimize-then-compose says %v, on-the-fly %v, want %v", r.mtc, r.otf, tc.want)
			}
			if r.info.Route != engine.RouteOTF {
				t.Fatalf("route %s (fallback %q), want %s", r.info.Route, r.info.Fallback, engine.RouteOTF)
			}
		})
	}
}
