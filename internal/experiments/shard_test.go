package experiments

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"eprons/internal/fattree"
)

// fig10Cells runs a small Fig 10 sweep and renders it in figdump's exact
// format (%.17g round-trips float64 exactly), so equality here is
// bit-identity of the figure output.
func fig10Cells(t *testing.T, cfg NetLatencyConfig) string {
	t.Helper()
	rows, err := Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
	if err != nil {
		t.Fatalf("fig10: %v", err)
	}
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("fig10 %d %.17g %.17g %.17g %.17g %d\n",
			r.Level, r.BgUtil, r.MeanS, r.P95S, r.P99S, r.Dropped)
	}
	return out
}

func fig11Cells(t *testing.T, cfg NetLatencyConfig) string {
	t.Helper()
	rows, err := Fig11ScaleFactor([]int{1, 4}, []float64{0.30}, cfg)
	if err != nil {
		t.Fatalf("fig11: %v", err)
	}
	out := ""
	for _, r := range rows {
		out += fmt.Sprintf("fig11 %d %.17g %.17g %d %v\n",
			r.K, r.BgUtil, r.P95S, r.ActiveSwitches, r.Feasible)
	}
	return out
}

// TestShardedFigEquivalence pins the tentpole contract: the pod-sharded
// conservative engine produces figure output bit-identical to the
// sequential engine at every shard count, with the fluid background engine
// both off and on. (Fig 13/15 are planner-model computations with no
// packet simulation — the Shards knob does not reach them, so their
// figdump output is trivially invariant.)
func TestShardedFigEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run packet simulations")
	}
	for _, fluid := range []bool{false, true} {
		fluid := fluid
		t.Run(fmt.Sprintf("fluid=%v", fluid), func(t *testing.T) {
			cfg := NetLatencyConfig{DurationS: 0.4, K: 4, Fluid: fluid}
			ref10 := fig10Cells(t, cfg)
			ref11 := fig11Cells(t, NetLatencyConfig{DurationS: 0.3, K: 4, Fluid: fluid})
			for _, shards := range []int{2, 4} {
				scfg := cfg
				scfg.Shards = shards
				if got := fig10Cells(t, scfg); got != ref10 {
					t.Errorf("fig10 shards=%d diverged from sequential:\n--- sequential\n%s--- shards=%d\n%s", shards, ref10, shards, got)
				}
				s11 := NetLatencyConfig{DurationS: 0.3, K: 4, Fluid: fluid, Shards: shards}
				if got := fig11Cells(t, s11); got != ref11 {
					t.Errorf("fig11 shards=%d diverged from sequential:\n--- sequential\n%s--- shards=%d\n%s", shards, ref11, shards, got)
				}
			}
		})
	}
}

// TestShardedECMPEquivalence pins that the ECMP query-route fast path is
// itself shard-invariant (it changes routing, so it is NOT compared to the
// placer path — only to itself across shard counts). The sequential engine
// resolves pair routes on demand while the sharded one precomputes them
// all, so this is also the on-demand vs all-pairs equivalence check. The
// k=10 case (250 hosts) puts background flow IDs 50000–50089 inside the
// 62,500-ID pair space, where the all-pairs sweep overwrites their placed
// routes; k=4 cannot see that overlap.
func TestShardedECMPEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run packet simulations")
	}
	for _, tc := range []struct {
		k      int
		shards []int
	}{
		{4, []int{2, 4}},
		{10, []int{2}},
	} {
		cfg := NetLatencyConfig{DurationS: 0.4, K: tc.k, Fluid: true, ECMPQueries: true}
		ref := fig10Cells(t, cfg)
		for _, shards := range tc.shards {
			scfg := cfg
			scfg.Shards = shards
			if got := fig10Cells(t, scfg); got != ref {
				t.Errorf("ecmp k=%d fig10 shards=%d diverged:\n--- sequential\n%s--- shards=%d\n%s", tc.k, shards, ref, shards, got)
			}
		}
	}
}

// TestECMPUnroutablePairInfeasible: a query pair with no active ECMP path
// fails the cell with ErrInfeasible on both route paths — up front when
// the sharded engine precomputes every pair, after the run when the
// sequential engine's on-demand resolver meets the pair. Host 0's access
// link is off; no background elephant touches host 0 (in every pod p,
// host p·4 + p%4 carries none), so placement still succeeds.
func TestECMPUnroutablePairInfeasible(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	active := ft.AggregationPolicy(0)
	active.SetLink(ft.Graph.LinksAt(ft.Hosts[0])[0], false)
	for _, shards := range []int{1, 2} {
		cfg := NetLatencyConfig{DurationS: 0.2, K: 4, ECMPQueries: true, Shards: shards}
		cfg.fill()
		_, _, err := measureNetwork(active, ft, 0.2, cfg, true, 1)
		if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "no active ECMP path host") {
			t.Errorf("shards=%d: err = %v, want ErrInfeasible naming the unroutable pair", shards, err)
		}
	}
}
