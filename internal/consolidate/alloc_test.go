package consolidate

import (
	"slices"
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/topology"
)

// allPairsLS returns one latency-sensitive flow per ordered host pair of
// ft at demandBps each.
func allPairsLS(ft *fattree.FatTree, demandBps float64) []flow.Flow {
	var flows []flow.Flow
	for i, src := range ft.Hosts {
		for j, dst := range ft.Hosts {
			if i == j {
				continue
			}
			flows = append(flows, flow.Flow{
				ID: flow.ID(len(flows)), Src: src, Dst: dst, DemandBps: demandBps, Class: flow.LatencySensitive,
			})
		}
	}
	return flows
}

// maxRoundAllocs bounds one Greedy or Balance round on the k=4 all-pairs
// flow set (240 flows). Candidates are scored as directed-link indices in
// reused scratch (PathDirsInto, DirsOn, the fit and utilization scans)
// against dense per-direction reservations, the placement order is one
// typed slice, and every winning node path is cut from one arena per
// result, so a round allocates the result (struct, path map, active set,
// two reservation slices), the order, the dirs scratch and the arenas —
// measured 16 for each, whatever the flow count.
// Regressing to a slice per placed path adds one per flow; building every
// candidate, or map reservations, multiplies it by the ECMP path count or
// the hop count.
const maxRoundAllocs = 24

func TestBalanceAllocBound(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := allPairsLS(ft, 5e6)
	cfg := Config{ScaleK: 1, SafetyMarginBps: 50e6, Restrict: ft.AggregationPolicy(0)}
	avg := testing.AllocsPerRun(5, func() {
		res, err := Balance(ft, flows, cfg)
		if err != nil || !res.Feasible {
			t.Fatalf("balance: err=%v feasible=%v", err, res != nil && res.Feasible)
		}
	})
	if avg > maxRoundAllocs {
		t.Fatalf("Balance allocated %.0f times per run at %d flows, want <= %d", avg, len(flows), maxRoundAllocs)
	}
}

func TestGreedyAllocBound(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := allPairsLS(ft, 5e6)
	cfg := Config{ScaleK: 3, SafetyMarginBps: 50e6}
	avg := testing.AllocsPerRun(5, func() {
		res, err := Greedy(ft, flows, cfg)
		if err != nil || !res.Feasible {
			t.Fatalf("greedy: err=%v feasible=%v", err, res != nil && res.Feasible)
		}
	})
	if avg > maxRoundAllocs {
		t.Fatalf("Greedy allocated %.0f times per run at %d flows, want <= %d", avg, len(flows), maxRoundAllocs)
	}
}

// TestPlacedPathsDoNotAlias checks that the paths Greedy and Balance cut
// from their shared arena are capacity-clipped: appending to one placed
// path copies it, and every other placed path keeps its nodes.
func TestPlacedPathsDoNotAlias(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows := allPairsLS(ft, 5e6)
	for _, c := range []struct {
		name  string
		solve func(Fabric, []flow.Flow, Config) (*Result, error)
	}{{"Greedy", Greedy}, {"Balance", Balance}} {
		res, err := c.solve(ft, flows, Config{ScaleK: 2, SafetyMarginBps: 50e6})
		if err != nil || !res.Feasible {
			t.Fatalf("%s: err=%v feasible=%v", c.name, err, res != nil && res.Feasible)
		}
		if len(res.Paths) != len(flows) {
			t.Fatalf("%s placed %d paths, want %d", c.name, len(res.Paths), len(flows))
		}
		want := make(map[flow.ID]topology.Path, len(res.Paths))
		for id, p := range res.Paths {
			if cap(p) != len(p) {
				t.Fatalf("%s: path of flow %d has len %d, cap %d", c.name, id, len(p), cap(p))
			}
			want[id] = slices.Clone(p)
		}
		for id, p := range res.Paths {
			_ = append(p, topology.NodeID(-1))
			for other, q := range res.Paths {
				if !slices.Equal(q, want[other]) {
					t.Fatalf("%s: appending to flow %d's path changed flow %d's: %v, want %v",
						c.name, id, other, q, want[other])
				}
			}
		}
	}
}
