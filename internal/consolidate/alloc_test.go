package consolidate

import (
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/flow"
)

// TestBalanceAllocBound pins the candidate-scan allocation profile:
// candidates are scored as directed-link indices in reused scratch
// (PathDirsInto, DirsOn, the fit and utilization scans) against dense
// per-direction reservations, so the only per-flow allocation is the
// winning candidate's node path. Regressing to building every candidate,
// or to map reservations, multiplies this bound by the ECMP path count or
// the hop count.
func TestBalanceAllocBound(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var flows []flow.Flow
	id := flow.ID(0)
	for i, src := range ft.Hosts {
		for j, dst := range ft.Hosts {
			if i == j {
				continue
			}
			flows = append(flows, flow.Flow{
				ID: id, Src: src, Dst: dst, DemandBps: 5e6, Class: flow.LatencySensitive,
			})
			id++
		}
	}
	cfg := Config{ScaleK: 1, SafetyMarginBps: 50e6, Restrict: ft.AggregationPolicy(0)}
	avg := testing.AllocsPerRun(5, func() {
		res, err := Balance(ft, flows, cfg)
		if err != nil || !res.Feasible {
			t.Fatalf("balance: err=%v feasible=%v", err, res != nil && res.Feasible)
		}
	})
	// 240 flows: one winning path each, plus the result's map, dense
	// reservations, active set, placement order and sort — measured ~260.
	const maxAllocs = 400
	if avg > maxAllocs {
		t.Fatalf("Balance allocated %.0f times per run, want <= %d", avg, maxAllocs)
	}
}
