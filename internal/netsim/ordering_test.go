package netsim

import (
	"slices"
	"testing"
	"testing/quick"

	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// TestPerFlowFIFO: messages sent back-to-back on one flow are delivered in
// send order (FIFO links + fixed route imply no reordering).
func TestPerFlowFIFO(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, ft.Graph, DefaultConfig())
	if err := n.SetRoute(1, ft.Paths(ft.Hosts[0], ft.Hosts[12])[0]); err != nil {
		t.Fatal(err)
	}
	var got []int
	stream := rng.New(4)
	for i := 0; i < 50; i++ {
		i := i
		at := eng.Now()
		_ = at
		size := 500 + stream.Intn(6000)
		n.SendMessage(1, size, func(float64) { got = append(got, i) }, nil)
	}
	eng.RunAll()
	if len(got) != 50 {
		t.Fatalf("delivered %d/50", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("reordered delivery: %v", got)
		}
	}
}

func TestZeroSizeMessageDelivers(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	delivered := false
	n.SendMessage(1, 0, func(float64) { delivered = true }, nil)
	eng.RunAll()
	if !delivered {
		t.Fatal("zero-size message lost")
	}
}

func TestUtilizationIsPerDirection(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	// Forward direction only.
	n.SetRoute(1, topology.Path{h0, 1, h1})
	b := n.StartBackground(1, func() float64 { return 400e6 }, rng.New(2))
	eng.Run(1)
	b.Stop()
	// LinkUtilizationInto reports the busier direction: ~0.4, not 0.8 (which
	// double-counting directions would give) and not 0.2 (averaging).
	u := n.LinkUtilizationInto(nil, 1)
	lid, _ := g.FindLink(h0, 1)
	if u[lid] < 0.33 || u[lid] > 0.47 {
		t.Fatalf("utilization %.3f, want ~0.40", u[lid])
	}
}

func TestFlowRates(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	n.SetRoute(7, topology.Path{h0, 1, h1})
	b := n.StartBackground(7, func() float64 { return 250e6 }, rng.New(9))
	eng.Run(2)
	b.Stop()
	rates := n.FlowRatesInto(nil, 2)
	if r := rates[7]; r < 200e6 || r > 300e6 {
		t.Fatalf("flow rate %.0f, want ~250e6", r)
	}
	if len(n.FlowRatesInto(nil, 0)) != 0 {
		t.Fatal("zero window must return empty")
	}
	n.ResetStats()
	if len(n.FlowRatesInto(nil, 1)) != 0 {
		t.Fatal("reset did not clear flow counters")
	}
}

// Property: total delivered bytes equal total sent bytes on an
// uncontended active route (conservation).
func TestQuickByteConservation(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(sizes []uint16) bool {
		eng := sim.New()
		n := New(eng, ft.Graph, DefaultConfig())
		if err := n.SetRoute(1, ft.Paths(ft.Hosts[0], ft.Hosts[5])[0]); err != nil {
			return false
		}
		sent := 0
		delivered := 0
		for _, s16 := range sizes {
			size := int(s16)%8000 + 1
			sent += size
			n.SendMessage(1, size, func(float64) { delivered += size }, nil)
		}
		eng.RunAll()
		return delivered == sent && n.Dropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFiniteBufferTailDrop(t *testing.T) {
	// Overload a 1 Gbps egress from a 100 Gbps ingress with a tiny buffer:
	// most packets must tail-drop; with infinite buffers none do.
	build := func(limit int) (*Network, *sim.Engine) {
		g := topology.NewGraph()
		h0 := g.AddNode("h0", topology.Host, 0)
		sw := g.AddNode("sw", topology.EdgeSwitch, 36)
		h1 := g.AddNode("h1", topology.Host, 0)
		if _, err := g.AddLink(h0, sw, 100e9, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddLink(sw, h1, 1e9, 0); err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		cfg := DefaultConfig()
		cfg.QueueLimitBytes = limit
		n := New(eng, g, cfg)
		if err := n.SetRoute(1, topology.Path{h0, sw, h1}); err != nil {
			t.Fatal(err)
		}
		return n, eng
	}

	n, eng := build(10 * 1500)
	bg := n.StartBackground(1, func() float64 { return 2e9 }, rng.New(3)) // 2x overload
	eng.Run(0.2)
	bg.Stop()
	eng.Run(0.3)
	if n.TailDrops == 0 {
		t.Fatal("no tail drops under 2x overload with a 10-packet buffer")
	}
	// Delivered rate is capped at link capacity: forwarded bytes on the
	// egress cannot exceed capacity*time.
	egress, _ := n.Graph().FindLink(1, 2)
	bytes := n.LinkBytesInto(nil)[egress]
	if float64(bytes) > 1e9/8*0.55 {
		t.Fatalf("egress moved %d bytes, above capacity", bytes)
	}

	inf, engInf := build(0)
	bgi := inf.StartBackground(1, func() float64 { return 2e9 }, rng.New(3))
	engInf.Run(0.2)
	bgi.Stop()
	engInf.Run(0.3)
	if inf.TailDrops != 0 {
		t.Fatalf("infinite buffer dropped %d packets", inf.TailDrops)
	}
}

// TestLinkFIFODeepQueue sends 10k packets onto one link direction at t=0
// (flow 1, h0→sw at 1 Gb/s) and one packet on a parallel direction at the
// same instant (flow 2, h2→sw at 0.5 Gb/s), either before or after the
// deep queue. Every delivery must land at the analytic FIFO departure
// time, computed with the forwarder's own float operations. The flow 2
// packet takes twice as long to transmit, so it arrives at the same
// instant as the second deep packet, whose event waited in the departure
// queue while the first was in flight: the tie must resolve in send
// order, so a queued packet has to fire under the seq it drew when it was
// sent, not one drawn when it reached the head of the queue. Only the
// queue heads may hold engine events.
func TestLinkFIFODeepQueue(t *testing.T) {
	const deep = 10000
	for _, tieFirst := range []bool{true, false} {
		g := topology.NewGraph()
		h0 := g.AddNode("h0", topology.Host, 0)
		h2 := g.AddNode("h2", topology.Host, 0)
		sw := g.AddNode("sw", topology.EdgeSwitch, 36)
		if _, err := g.AddLink(h0, sw, 1e9, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddLink(h2, sw, 0.5e9, 0); err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		eng := sim.New()
		n := New(eng, g, cfg)
		if err := n.SetRoute(1, topology.Path{h0, sw}); err != nil {
			t.Fatal(err)
		}
		if err := n.SetRoute(2, topology.Path{h2, sw}); err != nil {
			t.Fatal(err)
		}
		type delivery struct {
			t     float64
			label int // 0..deep-1 the deep packets, -1 the flow 2 packet
		}
		var got []delivery
		send := func(fid flow.ID, label int) {
			n.SendMessage(fid, cfg.PacketBytes, func(float64) {
				got = append(got, delivery{eng.Now(), label})
			}, nil)
		}
		if tieFirst {
			send(2, -1)
		}
		for i := 0; i < deep; i++ {
			send(1, i)
		}
		if !tieFirst {
			send(2, -1)
		}
		if eng.Len() != 2 {
			t.Fatalf("tieFirst=%v: %d engine events after the sends, want one per busy direction (2)", tieFirst, eng.Len())
		}
		eng.RunAll()

		tx := float64(cfg.PacketBytes) * 8 / 1e9
		var want []delivery
		busy := 0.0
		for i := 0; i < deep; i++ {
			busy += tx
			want = append(want, delivery{busy + cfg.HopDelay, i})
		}
		tie := delivery{float64(cfg.PacketBytes)*8/0.5e9 + cfg.HopDelay, -1}
		if tie.t != want[1].t {
			t.Fatalf("flow 2 delivers at %v, deep packet 1 at %v: no tie to test", tie.t, want[1].t)
		}
		if tieFirst {
			want = append([]delivery{want[0], tie}, want[1:]...)
		} else {
			want = append([]delivery{want[0], want[1], tie}, want[2:]...)
		}
		if len(got) != len(want) {
			t.Fatalf("tieFirst=%v: %d deliveries, want %d", tieFirst, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tieFirst=%v: delivery %d = %+v, want %+v", tieFirst, i, got[i], want[i])
			}
		}
		if eng.Len() != 0 || n.Dropped != 0 {
			t.Fatalf("tieFirst=%v: %d events live, %d drops after drain", tieFirst, eng.Len(), n.Dropped)
		}
		if err := eng.AuditInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDepartureQueueBypass drives the departure queue's defensive branch
// directly: a departure earlier than the queue's tail (which positive
// transmission times rule out) must bypass the queue into the heap, fire
// at its own time, and leave the queued packets' order intact. A recording
// handler registered as the network's step kind sees every firing.
func TestDepartureQueueBypass(t *testing.T) {
	g, h0, _ := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, g.Node(1).ID}); err != nil {
		t.Fatal(err)
	}
	rt, _ := n.lookupRoute(1)
	sid, li := rt.SegAt(0)
	ls := &n.links[n.arena.Seg(sid).Hops[li].Dir]
	var got []float64
	n.stepKind = eng.Handle(func(i int32) {
		got = append(got, eng.Now())
		n.stepPacket(i)
	})
	var pks []int32
	for _, at := range []float64{5, 3, 6, 6} {
		i := n.acquirePacket()
		pks = append(pks, i)
		pk := n.pkt(i)
		pk.fid, pk.rt, pk.bytes, pk.hop = 1, rt, 1500, 1 // just crossed hop 0
		n.enqueueDeparture(ls, i, pk, at)
	}
	if eng.Len() != 2 {
		t.Fatalf("%d engine events, want the queue head and the bypassing packet", eng.Len())
	}
	eng.Run(4)
	if len(got) != 1 || ls.qHead != pks[0] || ls.qTail != pks[3] {
		t.Fatalf("after the bypassing packet fired at %v: queue head %d tail %d, want %d and %d", got, ls.qHead, ls.qTail, pks[0], pks[3])
	}
	eng.RunAll()
	if want := []float64{3, 5, 6, 6}; !slices.Equal(got, want) {
		t.Fatalf("fired at %v, want %v", got, want)
	}
	if eng.Len() != 0 || ls.qHead != 0 || ls.qTail != 0 {
		t.Fatalf("after drain: %d events live, queue head %d tail %d", eng.Len(), ls.qHead, ls.qTail)
	}
}
