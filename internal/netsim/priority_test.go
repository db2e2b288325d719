package netsim

import (
	"testing"

	"eprons/internal/metrics"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// kneeUnder measures mean query latency on a shared bottleneck at the given
// background utilization, with or without strict-priority queueing.
func kneeUnder(t *testing.T, priority bool, util float64) float64 {
	t.Helper()
	g, h0, h1 := line(t)
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.PriorityQueueing = priority
	n := New(eng, g, cfg)
	path := topology.Path{h0, 1, h1}
	if err := n.SetRoute(1, path); err != nil {
		t.Fatal(err)
	}
	if err := n.SetRoute(2, path); err != nil {
		t.Fatal(err)
	}
	if priority {
		n.SetPriority(1, true)
	}
	bg := n.StartBackground(2, func() float64 { return util * 1e9 }, rng.New(42))
	var tr metrics.Tracker
	qs := rng.New(7)
	var send func()
	send = func() {
		n.SendMessage(1, 1500, func(l float64) { tr.Add(l) }, nil)
		if tr.Count() < 1500 {
			eng.After(qs.Exp(500e-6), send)
		}
	}
	eng.After(1e-3, send)
	eng.Run(6)
	bg.Stop()
	eng.Run(7)
	return tr.Mean()
}

// TestPriorityFlattensTheKnee is the QoS ablation: strict priority keeps
// query latency near the unloaded floor even at 90% background
// utilization, where the FIFO fabric's knee has multiplied it. (The paper
// assumes commodity FIFO fabrics — this quantifies what per-flow QoS
// would change.)
func TestPriorityFlattensTheKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	fifoHigh := kneeUnder(t, false, 0.90)
	prioHigh := kneeUnder(t, true, 0.90)
	prioLow := kneeUnder(t, true, 0.10)
	if prioHigh >= fifoHigh/2 {
		t.Fatalf("priority did not flatten the knee: %.1fµs vs FIFO %.1fµs",
			prioHigh*1e6, fifoHigh*1e6)
	}
	// Under priority, 90% background costs at most one residual packet of
	// head-of-line blocking vs 10% background.
	residual := 1500.0 * 8 / 1e9 * 2 // one packet per hop
	if prioHigh > prioLow+residual {
		t.Fatalf("priority latency grew with load: %.1fµs vs %.1fµs (+%.1fµs allowed)",
			prioHigh*1e6, prioLow*1e6, residual*1e6)
	}
}

// TestPriorityConservesWork: the background still gets the leftover
// capacity (strict priority is work-conserving).
func TestPriorityConservesWork(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.PriorityQueueing = true
	n := New(eng, g, cfg)
	path := topology.Path{h0, 1, h1}
	n.SetRoute(2, path)
	b := n.StartBackground(2, func() float64 { return 400e6 }, rng.New(2))
	eng.Run(1)
	b.Stop()
	u := n.LinkUtilizationInto(nil, 1)
	lid, _ := g.FindLink(h0, 1)
	if u[lid] < 0.33 || u[lid] > 0.47 {
		t.Fatalf("background throughput %.3f, want ~0.40", u[lid])
	}
}

// TestPriorityFIFOWithinClass: two high-priority messages keep their order.
func TestPriorityFIFOWithinClass(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	cfg := DefaultConfig()
	cfg.PriorityQueueing = true
	n := New(eng, g, cfg)
	n.SetRoute(1, topology.Path{h0, 1, h1})
	n.SetPriority(1, true)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		n.SendMessage(1, 3000, func(float64) { got = append(got, i) }, nil)
	}
	eng.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered within class: %v", got)
		}
	}
}
