package consolidate

import (
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/flow"
)

// Layer benchmarks for the consolidation kernel at the fabric sizes the
// end-to-end workloads run it on. Fabric and flow construction stay
// outside the timer.

// benchTree builds a k-ary fat-tree with the paper's link and switch
// parameters.
func benchTree(b *testing.B, k int) *fattree.FatTree {
	b.Helper()
	cfg := fattree.DefaultConfig()
	cfg.K = k
	ft, err := fattree.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ft
}

// podElephants returns one background flow per ordered pod pair at frac of
// link capacity, spread over distinct source and destination hosts — the
// Fig 10 background set.
func podElephants(ft *fattree.FatTree, frac float64, firstID flow.ID) []flow.Flow {
	k := ft.Cfg.K
	hostsPerPod := len(ft.Hosts) / k
	var out []flow.Flow
	id := firstID
	for sp := 0; sp < k; sp++ {
		for dp := 0; dp < k; dp++ {
			if sp == dp {
				continue
			}
			out = append(out, flow.Flow{
				ID:        id,
				Src:       ft.Hosts[sp*hostsPerPod+dp%hostsPerPod],
				Dst:       ft.Hosts[dp*hostsPerPod+sp%hostsPerPod],
				DemandBps: frac * ft.Cfg.LinkCapacityBps,
				Class:     flow.Background,
			})
			id++
		}
	}
	return out
}

// BenchmarkConsolidateBalanceK32 is the Fig 10 k=32 placement: 992 pod
// elephants at 20% of capacity balanced under Aggregation 0 (256
// candidates each).
func BenchmarkConsolidateBalanceK32(b *testing.B) {
	ft := benchTree(b, 32)
	flows := podElephants(ft, 0.20, flow.ID(len(ft.Hosts)*len(ft.Hosts)))
	cfg := Config{ScaleK: 1, SafetyMarginBps: 50e6, Restrict: ft.AggregationPolicy(0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Balance(ft, flows, cfg)
		if err != nil || !res.Feasible {
			b.Fatalf("balance: err=%v feasible=%v", err, res != nil && res.Feasible)
		}
	}
}

// BenchmarkConsolidateGreedyK16 is a planner-style greedy round on k=16:
// the 240 pod elephants plus one latency-sensitive flow per host to a host
// in the next pod, reserved at ScaleK 3 (64 candidates per inter-pod flow).
func BenchmarkConsolidateGreedyK16(b *testing.B) {
	ft := benchTree(b, 16)
	flows := podElephants(ft, 0.20, 100000)
	hostsPerPod := len(ft.Hosts) / ft.Cfg.K
	for i, src := range ft.Hosts {
		flows = append(flows, flow.Flow{
			ID:        flow.ID(i),
			Src:       src,
			Dst:       ft.Hosts[(i+hostsPerPod+1)%len(ft.Hosts)],
			DemandBps: 20e6,
			Class:     flow.LatencySensitive,
		})
	}
	cfg := Config{ScaleK: 3, SafetyMarginBps: 50e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Greedy(ft, flows, cfg)
		if err != nil || !res.Feasible {
			b.Fatalf("greedy: err=%v feasible=%v", err, res != nil && res.Feasible)
		}
	}
}
