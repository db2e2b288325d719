package controller

import (
	"testing"

	"eprons/internal/consolidate"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/netsim"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// handPlacement builds a consolidation result that routes the flow over
// the given core group (0 or 1) and powers only that path.
func handPlacement(ft *fattree.FatTree, f flow.Flow, group int) *consolidate.Result {
	g := ft.Graph
	var path topology.Path
	for _, p := range ft.Paths(f.Src, f.Dst) {
		// Inter-pod paths have the core switch at index 3.
		if g.Node(p[3]).Name[:6] == "core_0" && group == 0 {
			path = p
			break
		}
		if g.Node(p[3]).Name[:6] == "core_1" && group == 1 {
			path = p
			break
		}
	}
	res := &consolidate.Result{
		Feasible:    true,
		Paths:       map[flow.ID]topology.Path{f.ID: path},
		Active:      topology.NewEmptyActiveSet(g),
		ReservedBps: make([]float64, 2*g.NumLinks()),
		ActualBps:   make([]float64, 2*g.NumLinks()),
	}
	for _, lid := range path.Links(g) {
		res.Active.SetLink(lid, true)
	}
	res.NetworkPowerW = res.Active.NetworkPowerW()
	return res
}

// runTransition drives one re-route under the given transition delay and
// returns the number of dropped packets.
func runTransition(t *testing.T, delay float64) int64 {
	t.Helper()
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
	f := flow.Flow{ID: 1, Src: ft.Hosts[0], Dst: ft.Hosts[8], DemandBps: 300e6, Class: flow.Background}

	group := 0
	opt := OptimizerFunc(func(flows []flow.Flow) (*consolidate.Result, error) {
		res := handPlacement(ft, f, group)
		group = 1 - group // alternate on every optimization
		return res, nil
	})
	cfg := DefaultConfig()
	cfg.OptimizePeriod = 2
	cfg.TransitionDelay = delay
	c, err := New(eng, net, opt, []flow.Flow{f}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	bg := net.StartBackground(f.ID, func() float64 { return f.DemandBps }, rng.New(3))
	eng.Run(7) // two re-optimizations at t=2 and t=4
	bg.Stop()
	c.Stop()
	eng.Run(8)
	return net.Dropped
}

// TestMakeBeforeBreakPreventsDrops: instantly powering off the old subnet
// drops the packets in flight on it; the make-before-break transition
// (modeling the measured 72.5 s switch power-on by keeping the union
// active) delivers everything.
func TestMakeBeforeBreakPreventsDrops(t *testing.T) {
	instant := runTransition(t, 0)
	mbb := runTransition(t, 1.0)
	if instant == 0 {
		t.Fatal("expected in-flight drops with instant reconfiguration")
	}
	if mbb != 0 {
		t.Fatalf("make-before-break dropped %d packets", mbb)
	}
}
