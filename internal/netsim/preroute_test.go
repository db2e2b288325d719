package netsim

import (
	"math"
	"testing"

	"eprons/internal/sim"
	"eprons/internal/topology"
)

// Regression tests for the staleness hazard route preresolution introduces:
// routes carry a preresolved per-hop on/off mask that is only recomputed
// when the active set's epoch changes, and the mask must reproduce exactly
// the semantics of probing the ActiveSet at every hop — a packet mid-flight
// across a SetActive change drops if (and only if) one of its REMAINING
// hops went dark, at the instant it arrives at that hop.

// chainTimes: on the benchChain topology (1 Gbps links, 2µs hop delay) a
// single 1500 B packet launched at t=0 arrives at hop h at h*(12µs+2µs).
const (
	chainTx  = 1500 * 8 / 1e9
	chainHop = 2e-6
)

// TestMidFlightDownstreamDeactivationDrops: a link two hops AHEAD of an
// in-flight packet is powered off; the packet must survive its current hop
// and drop exactly when it arrives at the dead one — the timing the old
// per-hop ActiveSet probe produced.
func TestMidFlightDownstreamDeactivationDrops(t *testing.T) {
	eng, n := benchChain(t, DefaultConfig())
	var droppedAt float64 = -1
	delivered := false
	n.SendMessage(1, 1500, func(float64) { delivered = true }, func() { droppedAt = eng.Now() })
	// The packet arrives at s2 (hop 2, where it would enqueue onto link 2)
	// at 2*(tx+hop) = 28µs. Kill link 2 at 20µs, while the packet is on
	// the wire of link 1.
	eng.Schedule(20e-6, func() {
		act := n.Active().Clone()
		act.SetLink(n.Graph().Links()[2].ID, false)
		n.SetActive(act)
	})
	eng.RunAll()
	if delivered {
		t.Fatal("message delivered across a deactivated downstream link")
	}
	if n.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", n.Dropped)
	}
	want := 2 * (chainTx + chainHop)
	if math.Abs(droppedAt-want) > 1e-12 {
		t.Errorf("dropped at %.9g, want arrival instant at the dead hop %.9g", droppedAt, want)
	}
	// The two links behind the drop point carried the packet; the dead
	// one and the one after it did not.
	lb := n.LinkBytesInto(nil)
	for lid, wantB := range map[topology.LinkID]int64{0: 1500, 1: 1500, 2: 0, 3: 0} {
		if lb[lid] != wantB {
			t.Errorf("link %d bytes = %d, want %d", lid, lb[lid], wantB)
		}
	}
}

// TestMidFlightUpstreamDeactivationStillDelivers: powering off a link the
// packet has ALREADY crossed must not affect it — the regression the naive
// "drop when any hop of the route is off" optimization would introduce.
func TestMidFlightUpstreamDeactivationStillDelivers(t *testing.T) {
	eng, n := benchChain(t, DefaultConfig())
	var deliveredAt float64 = -1
	n.SendMessage(1, 1500, func(float64) { deliveredAt = eng.Now() }, nil)
	// At 20µs the packet is past link 0 and link 1's enqueue; kill link 0.
	eng.Schedule(20e-6, func() {
		act := n.Active().Clone()
		act.SetLink(n.Graph().Links()[0].ID, false)
		n.SetActive(act)
	})
	eng.RunAll()
	if deliveredAt < 0 {
		t.Fatal("message dropped although only an already-crossed hop went dark")
	}
	want := 4 * (chainTx + chainHop)
	if math.Abs(deliveredAt-want) > 1e-12 {
		t.Errorf("delivered at %.9g, want unperturbed %.9g", deliveredAt, want)
	}
	if n.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", n.Dropped)
	}
}

// TestMidFlightReactivationDelivers: off-then-on before the packet reaches
// the hop means the packet never observes the outage (activity is checked
// at arrival, not at send).
func TestMidFlightReactivationDelivers(t *testing.T) {
	eng, n := benchChain(t, DefaultConfig())
	delivered := false
	n.SendMessage(1, 1500, func(float64) { delivered = true }, nil)
	kill := func(on bool) func() {
		return func() {
			act := n.Active().Clone()
			act.SetLink(n.Graph().Links()[3].ID, on)
			n.SetActive(act)
		}
	}
	eng.Schedule(5e-6, kill(false))
	eng.Schedule(30e-6, kill(true)) // before the 42µs arrival at s3
	eng.RunAll()
	if !delivered {
		t.Fatal("message dropped although the link was back on before arrival")
	}
	if n.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", n.Dropped)
	}
}

// TestSetRouteMidFlightKeepsOldPath: packets pin the route object they
// launched on; replacing the flow's route mid-flight must not teleport
// them (value semantics of the pre-resolution Path field).
func TestSetRouteMidFlightKeepsOldPath(t *testing.T) {
	g := topology.NewGraph()
	h0 := g.AddNode("h0", topology.Host, 0)
	s1 := g.AddNode("s1", topology.EdgeSwitch, 36)
	s2 := g.AddNode("s2", topology.EdgeSwitch, 36)
	h1 := g.AddNode("h1", topology.Host, 0)
	var lids []topology.LinkID
	for _, pair := range [][2]topology.NodeID{{h0, s1}, {s1, h1}, {h0, s2}, {s2, h1}} {
		lid, err := g.AddLink(pair[0], pair[1], 1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		lids = append(lids, lid)
	}
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, s1, h1}); err != nil {
		t.Fatal(err)
	}
	delivered := false
	n.SendMessage(1, 1500, func(float64) { delivered = true }, nil)
	// Reroute via s2 while the packet is on the wire of link h0-s1.
	eng.Schedule(5e-6, func() {
		if err := n.SetRoute(1, topology.Path{h0, s2, h1}); err != nil {
			t.Fatal(err)
		}
	})
	eng.RunAll()
	if !delivered {
		t.Fatal("message lost across a mid-flight reroute")
	}
	lb := n.LinkBytesInto(nil)
	if lb[lids[0]] != 1500 || lb[lids[1]] != 1500 {
		t.Errorf("old path did not carry the in-flight packet: %v", lb)
	}
	if lb[lids[2]] != 0 || lb[lids[3]] != 0 {
		t.Errorf("new path carried an in-flight packet launched before the reroute: %v", lb)
	}
	// The NEXT message takes the new path.
	n.SendMessage(1, 1500, nil, nil)
	eng.RunAll()
	lb = n.LinkBytesInto(nil)
	if lb[lids[2]] != 1500 || lb[lids[3]] != 1500 {
		t.Errorf("post-reroute message did not take the new path: %v", lb)
	}
}

// TestPreresolvedRouteMatchesDirLinks: the arena-interned hop records must
// agree with the reference FindLink/DirIndex resolution for every
// installed route (the arithmetic the forwarder now trusts blindly), and
// the materialized path must round-trip the installed one.
func TestPreresolvedRouteMatchesDirLinks(t *testing.T) {
	_, n := benchChain(t, DefaultConfig())
	r, _ := n.routes.get(1)
	path, ok := n.Route(1)
	if !ok {
		t.Fatal("installed route not found")
	}
	ref := path.DirLinks(n.g)
	if r.NumHops() != len(ref) {
		t.Fatalf("hops %d, reference dirs %d", r.NumHops(), len(ref))
	}
	var hops []topology.DirHop
	hops = append(hops, n.arena.Seg(r.Up).Hops...)
	hops = append(hops, n.arena.Seg(r.Down).Hops...)
	for i, d := range ref {
		if hops[i].Dir != d {
			t.Errorf("hop %d: preresolved dir %d, reference %d", i, hops[i].Dir, d)
		}
		lid, _ := n.g.FindLink(path[i], path[i+1])
		if hops[i].Link != lid || hops[i].To != path[i+1] {
			t.Errorf("hop %d: link/to mismatch", i)
		}
	}
}
