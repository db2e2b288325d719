package netsim

import (
	"math"
	"reflect"
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// Tests for the flyweight route plane: steady-state allocation bounds,
// the batched-reevaluation contract of InstallRoutes, on-demand route
// resolution, and staleness semantics across shared segments.

// TestRouteArenaAllocBound: re-installing a route whose segments are
// already interned is the steady state of a controller that periodically
// re-pushes its rule set, and must allocate nothing — the map slot is
// overwritten with a 12-byte value, the arena is only probed.
func TestRouteArenaAllocBound(t *testing.T) {
	_, n := benchChain(t, DefaultConfig())
	path, ok := n.Route(1)
	if !ok {
		t.Fatal("benchChain route missing")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := n.SetRoute(1, path); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state SetRoute allocates %.1f per run, want 0", allocs)
	}
	// A second flow adopting an existing path also stays allocation-free
	// once its map slot exists.
	if err := n.SetRoute(2, path); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if err := n.SetRoute(2, path); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("second-flow SetRoute allocates %.1f per run, want 0", allocs)
	}
}

// twoPathNet builds the 4-node two-route diamond (h0-s1-h1 and h0-s2-h1)
// with fluid background enabled and flows 1 and 2 both routed via s1.
func twoPathNet(t *testing.T) (*sim.Engine, *Network, topology.Path) {
	t.Helper()
	g := topology.NewGraph()
	h0 := g.AddNode("h0", topology.Host, 0)
	s1 := g.AddNode("s1", topology.EdgeSwitch, 36)
	s2 := g.AddNode("s2", topology.EdgeSwitch, 36)
	h1 := g.AddNode("h1", topology.Host, 0)
	for _, pair := range [][2]topology.NodeID{{h0, s1}, {s1, h1}, {h0, s2}, {s2, h1}} {
		if _, err := g.AddLink(pair[0], pair[1], 1e9, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.FluidBackground = true
	eng := sim.New()
	n := New(eng, g, cfg)
	via1 := topology.Path{h0, s1, h1}
	for fid := flow.ID(1); fid <= 2; fid++ {
		if err := n.SetRoute(fid, via1); err != nil {
			t.Fatal(err)
		}
	}
	return eng, n, topology.Path{h0, s2, h1}
}

// TestInstallRoutesSingleReevaluate pins the batching contract: a
// controller push replacing m fluid-managed routes costs exactly ONE
// fluid reevaluation, per-flow SetRoute costs m — and the two produce
// byte-identical traffic statistics (reevaluation at an instant is
// idempotent: settling analytic bytes twice at the same timestamp
// accrues nothing, and the recomputed reservations are equal).
func TestInstallRoutesSingleReevaluate(t *testing.T) {
	run := func(batched bool) (reevals int64, lb map[topology.LinkID]int64, rates map[flow.ID]float64) {
		eng, n, via2 := twoPathNet(t)
		rate := func() float64 { return 0.2e9 }
		b1 := n.StartBackground(1, rate, rng.New(7))
		b2 := n.StartBackground(2, rate, rng.New(9))
		eng.Schedule(0.25, func() {
			base := n.fluidReevals
			if batched {
				if err := n.InstallRoutes(map[flow.ID]topology.Path{1: via2, 2: via2}); err != nil {
					t.Fatal(err)
				}
			} else {
				for fid := flow.ID(1); fid <= 2; fid++ {
					if err := n.SetRoute(fid, via2); err != nil {
						t.Fatal(err)
					}
				}
			}
			reevals = n.fluidReevals - base
		})
		eng.Run(0.5)
		b1.Stop()
		b2.Stop()
		eng.RunAll()
		return reevals, n.LinkBytesInto(nil), n.FlowRatesInto(nil, 0.5)
	}
	perFlowReevals, lbA, ratesA := run(false)
	batchedReevals, lbB, ratesB := run(true)
	if perFlowReevals != 2 {
		t.Errorf("per-flow SetRoute of 2 fluid routes ran %d reevaluations, want 2", perFlowReevals)
	}
	if batchedReevals != 1 {
		t.Errorf("InstallRoutes of 2 fluid routes ran %d reevaluations, want 1", batchedReevals)
	}
	if !reflect.DeepEqual(lbA, lbB) {
		t.Errorf("batched push changed link byte counters:\n per-flow: %v\n batched:  %v", lbA, lbB)
	}
	for fid, ra := range ratesA {
		if rb := ratesB[fid]; math.Float64bits(ra) != math.Float64bits(rb) {
			t.Errorf("flow %d rate differs: per-flow %v batched %v", fid, ra, rb)
		}
	}
}

// TestStartStopBackgroundsSingleReevaluate pins the batching contract of
// background pushes: StartBackgrounds of m sources and StopBackgrounds of
// m sources each cost exactly ONE fluid reevaluation where per-flow calls
// cost m, and the two leave identical traffic statistics and knee
// counters. The start crosses the knee (three 0.3 Gbps elephants share
// the forward chain, 0.9 > 0.8 Gbps) and the stop falls back under it.
func TestStartStopBackgroundsSingleReevaluate(t *testing.T) {
	type result struct {
		startReevals, stopReevals int64
		lb                        map[topology.LinkID]int64
		rates                     map[flow.ID]float64
		offered, carried          int64
		demotions, promotions     int64
	}
	run := func(batched bool) result {
		eng, n := benchChain(t, Config{FluidBackground: true})
		fwd, _ := n.Route(1)
		rev := make(topology.Path, len(fwd))
		for i, v := range fwd {
			rev[len(fwd)-1-i] = v
		}
		// Flows 1-3 share the forward chain; flow 4 rides it backwards and
		// stays fluid throughout.
		for fid, p := range []topology.Path{fwd, fwd, rev} {
			if err := n.SetRoute(flow.ID(fid+2), p); err != nil {
				t.Fatal(err)
			}
		}
		var specs []BackgroundSpec
		for fid := flow.ID(1); fid <= 4; fid++ {
			specs = append(specs, BackgroundSpec{ID: fid, Rate: func() float64 { return 0.3e9 }, Stream: rng.New(int64(fid))})
		}
		var res result
		var bgs []*Background
		eng.Schedule(0.1, func() {
			base := n.fluidReevals
			if batched {
				bgs = n.StartBackgrounds(specs)
			} else {
				for _, sp := range specs {
					bgs = append(bgs, n.StartBackground(sp.ID, sp.Rate, sp.Stream))
				}
			}
			res.startReevals = n.fluidReevals - base
		})
		eng.Schedule(0.3, func() {
			base := n.fluidReevals
			if batched {
				n.StopBackgrounds(bgs[:2])
			} else {
				bgs[0].Stop()
				bgs[1].Stop()
			}
			res.stopReevals = n.fluidReevals - base
		})
		eng.Run(0.5)
		if batched {
			n.StopBackgrounds(bgs)
		} else {
			for _, bg := range bgs {
				bg.Stop()
			}
		}
		eng.RunAll()
		res.lb, res.rates = n.LinkBytesInto(nil), n.FlowRatesInto(nil, 0.5)
		res.offered, res.carried = n.OfferedBytes, n.CarriedBytes
		res.demotions, res.promotions = n.FluidDemotions, n.FluidPromotions
		return res
	}
	a, b := run(false), run(true)
	if a.startReevals != 4 || a.stopReevals != 2 {
		t.Errorf("per-flow start/stop ran %d/%d reevaluations, want 4/2", a.startReevals, a.stopReevals)
	}
	if b.startReevals != 1 || b.stopReevals != 1 {
		t.Errorf("batched start/stop ran %d/%d reevaluations, want 1/1", b.startReevals, b.stopReevals)
	}
	if a.demotions == 0 || a.promotions == 0 {
		t.Fatalf("scenario did not cross the knee both ways: %d demotions, %d promotions", a.demotions, a.promotions)
	}
	if a.demotions != b.demotions || a.promotions != b.promotions {
		t.Errorf("knee counters differ: per-flow %d/%d batched %d/%d", a.demotions, a.promotions, b.demotions, b.promotions)
	}
	if a.offered != b.offered || a.carried != b.carried {
		t.Errorf("byte counters differ: per-flow %d/%d batched %d/%d", a.offered, a.carried, b.offered, b.carried)
	}
	if !reflect.DeepEqual(a.lb, b.lb) {
		t.Errorf("batched push changed link byte counters:\n per-flow: %v\n batched:  %v", a.lb, b.lb)
	}
	if len(a.rates) != len(b.rates) {
		t.Errorf("flow rate sets differ: per-flow %v batched %v", a.rates, b.rates)
	}
	for fid, ra := range a.rates {
		if rb := b.rates[fid]; math.Float64bits(ra) != math.Float64bits(rb) {
			t.Errorf("flow %d rate differs: per-flow %v batched %v", fid, ra, rb)
		}
	}
}

// TestRouteResolverOnDemand: a flow with no installed route consults the
// resolver exactly once (the result is interned and cached), a nil
// resolution is NOT cached (the next reference asks again), and Route
// never resolves on its own.
func TestRouteResolverOnDemand(t *testing.T) {
	eng, n := benchChain(t, DefaultConfig())
	path, _ := n.Route(1)
	calls := map[flow.ID]int{}
	if err := n.SetRouteResolver(func(fid flow.ID) topology.Path {
		calls[fid]++
		if fid == 7 {
			return path
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Route(7); ok {
		t.Fatal("Route materialized a lazily resolvable flow before any traffic")
	}
	delivered := 0
	for i := 0; i < 3; i++ {
		n.SendMessage(7, 1500, func(float64) { delivered++ }, nil)
		eng.RunAll()
	}
	if delivered != 3 {
		t.Fatalf("delivered %d of 3 lazily routed messages", delivered)
	}
	if calls[7] != 1 {
		t.Errorf("resolver consulted %d times for a resolvable flow, want 1 (cached after)", calls[7])
	}
	if p, ok := n.Route(7); !ok || !reflect.DeepEqual(p, path) {
		t.Errorf("cached lazy route = %v, %v; want the resolved path", p, ok)
	}
	for i := 0; i < 2; i++ {
		n.SendMessage(8, 1500, nil, nil)
		eng.RunAll()
	}
	if calls[8] != 2 {
		t.Errorf("resolver consulted %d times for an unresolvable flow, want 2 (nil not cached)", calls[8])
	}
	if n.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2 (unresolvable flow)", n.Dropped)
	}
}

// TestSharedSegmentStaleness: two flows into the same destination share
// their down-segment; a deactivation on that segment must drop BOTH
// flows' in-flight packets at their arrival instants, through the single
// shared liveness mask.
func TestSharedSegmentStaleness(t *testing.T) {
	g := topology.NewGraph()
	hA := g.AddNode("hA", topology.Host, 0)
	hB := g.AddNode("hB", topology.Host, 0)
	e0 := g.AddNode("e0", topology.EdgeSwitch, 36)
	agg := g.AddNode("agg", topology.AggSwitch, 36)
	e1 := g.AddNode("e1", topology.EdgeSwitch, 36)
	hC := g.AddNode("hC", topology.Host, 0)
	var last topology.LinkID
	for _, pair := range [][2]topology.NodeID{{hA, e0}, {hB, e0}, {e0, agg}, {agg, e1}, {e1, hC}} {
		lid, err := g.AddLink(pair[0], pair[1], 1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		last = lid
	}
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{hA, e0, agg, e1, hC}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetRoute(2, topology.Path{hB, e0, agg, e1, hC}); err != nil {
		t.Fatal(err)
	}
	r1, _ := n.routes.get(1)
	r2, _ := n.routes.get(2)
	if r1.Down != r2.Down {
		t.Fatalf("same-destination flows do not share the down-segment: %+v vs %+v", r1, r2)
	}
	if r1.Up == r2.Up {
		t.Fatalf("distinct sources share the up-segment: %+v vs %+v", r1, r2)
	}
	drops := 0
	var dropAt []float64
	onDrop := func() { drops++; dropAt = append(dropAt, eng.Now()) }
	n.SendMessage(1, 1500, nil, onDrop)
	n.SendMessage(2, 1500, nil, onDrop)
	// Both packets arrive at e1 (hop 3, the e1→hC enqueue) at
	// 3*(tx+hop) = 42µs; the second queues 12µs behind on shared links but
	// hits hop 3 after the same cutoff. Kill e1→hC at 20µs.
	eng.Schedule(20e-6, func() {
		act := n.Active().Clone()
		act.SetLink(last, false)
		n.SetActive(act)
	})
	eng.RunAll()
	if drops != 2 {
		t.Fatalf("drops = %d, want both flows dropped on the shared dead segment", drops)
	}
	want := 3 * (chainTx + chainHop)
	if math.Abs(dropAt[0]-want) > 1e-12 {
		t.Errorf("first drop at %.9g, want arrival instant %.9g", dropAt[0], want)
	}
	if dropAt[1] <= dropAt[0] {
		t.Errorf("second flow's drop at %.9g not after the first's %.9g", dropAt[1], dropAt[0])
	}
	// One revalidation served both flows: the shared segment is at the
	// current epoch with exactly one hop masked.
	if n.arena.SegNumOff(r1.Down) != 1 {
		t.Errorf("shared down-segment numOff = %d, want 1", n.arena.SegNumOff(r1.Down))
	}
}

// TestRouteOnMatchesPathOn: over random active sets of a k=4 fat-tree —
// switches and links off at random, not normalized, so a live link can
// meet a dead switch — RouteOn decides every installed route's liveness
// from its interned segments exactly as PathOn does on the materialized
// path. Routes share segments and each set bumps the epoch, so stale
// masks are revalidated along the way; a flow without a route is off.
func TestRouteOnMatchesPathOn(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(sim.New(), ft.Graph, DefaultConfig())
	s := rng.New(11)
	var ids []flow.ID
	for i, src := range ft.Hosts {
		for j, dst := range ft.Hosts {
			if i == j {
				continue
			}
			id := flow.ID(i*len(ft.Hosts) + j)
			if err := n.SetRoute(id, ft.PathByIndex(src, dst, s.Intn(ft.NumPaths(src, dst)))); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	g := ft.Graph
	for round := 0; round < 60; round++ {
		a := topology.NewActiveSet(g)
		offNode, offLink := 0.05*float64(round%5), 0.03*float64(round%4)
		for _, nd := range g.Nodes() {
			if nd.Kind.IsSwitch() && s.Float64() < offNode {
				a.SetNode(nd.ID, false)
			}
		}
		for _, l := range g.Links() {
			if s.Float64() < offLink {
				a.SetLink(l.ID, false)
			}
		}
		n.SetActive(a)
		for _, id := range ids {
			p, _ := n.Route(id)
			if got, want := n.RouteOn(id), n.Active().PathOn(p); got != want {
				t.Fatalf("round %d flow %d: RouteOn %v, PathOn(%v) %v", round, id, got, p, want)
			}
		}
	}
	if n.RouteOn(flow.ID(len(ft.Hosts) * len(ft.Hosts))) {
		t.Error("a flow with no route reports on")
	}
}
