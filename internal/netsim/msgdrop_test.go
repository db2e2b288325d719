package netsim

import (
	"testing"

	"eprons/internal/sim"
	"eprons/internal/topology"
)

// Regression tests for message-level drop semantics: before the fix a
// message that lost any packet simply vanished (onDelivered never fired,
// onDropped did not exist at the message level) and every lost packet of
// the same message would have produced its own notification. A message is
// now dropped exactly once, delivered only if every packet arrives, and
// byte accounting distinguishes offered from carried traffic.

func TestMultiPacketDropNotifiesOnce(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	// Kill the egress link: all four packets of a 6000 B message die at
	// hop 1, but the message-level callback must fire exactly once.
	a := topology.NewActiveSet(g)
	lid, _ := g.FindLink(1, h1)
	a.SetLink(lid, false)
	n.SetActive(a)

	drops := 0
	n.SendMessage(1, 6000, func(float64) { t.Fatal("delivered across dead link") }, func() { drops++ })
	eng.RunAll()
	if drops != 1 {
		t.Fatalf("onDropped fired %d times, want 1", drops)
	}
	if n.Dropped != 4 {
		t.Fatalf("packet drops %d, want 4", n.Dropped)
	}
	if n.MsgDropped != 1 {
		t.Fatalf("message drops %d, want 1", n.MsgDropped)
	}
}

func TestPartialMessageIsDroppedNotDelivered(t *testing.T) {
	// A link flap that eats exactly one middle packet of a four-packet
	// message: the message must be reported dropped, never delivered.
	// Timing (1 Gbps, 1500 B, 2 µs hop delay): packet i reaches the
	// sw→h1 forwarder at 12(i+1)+2 µs, i.e. 14, 26, 38, 50 µs. A flap
	// over (20 µs, 30 µs) kills only packet 1.
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	lid, _ := g.FindLink(1, h1)
	off := topology.NewActiveSet(g)
	off.SetLink(lid, false)
	on := topology.NewActiveSet(g)
	eng.Schedule(20e-6, func() { n.SetActive(off) })
	eng.Schedule(30e-6, func() { n.SetActive(on) })

	drops := 0
	n.SendMessage(1, 6000, func(float64) { t.Fatal("phantom delivery: a packet was lost") }, func() { drops++ })
	eng.RunAll()
	if n.Dropped != 1 {
		t.Fatalf("packet drops %d, want exactly 1 (the flap window moved)", n.Dropped)
	}
	if drops != 1 || n.MsgDropped != 1 {
		t.Fatalf("onDropped=%d MsgDropped=%d, want 1/1", drops, n.MsgDropped)
	}
}

func TestNoRouteCountsMessageDrop(t *testing.T) {
	g, _, _ := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	drops := 0
	n.SendMessage(9, 6000, func(float64) { t.Fatal("delivered without route") }, func() { drops++ })
	eng.RunAll()
	if drops != 1 || n.MsgDropped != 1 {
		t.Fatalf("onDropped=%d MsgDropped=%d, want 1/1", drops, n.MsgDropped)
	}
}

func TestHopZeroDropNotCountedAsCarried(t *testing.T) {
	// A packet rejected at its first hop never reaches any switch: the
	// flow counters the controller polls must not see it.
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	a := topology.NewActiveSet(g)
	lid, _ := g.FindLink(h0, 1)
	a.SetLink(lid, false)
	n.SetActive(a)

	n.SendMessage(1, 6000, nil, nil)
	eng.RunAll()
	if got := n.FlowRatesInto(nil, 1.0)[1]; got != 0 {
		t.Fatalf("flow rate %g for traffic dropped at hop 0, want 0", got)
	}
	if n.MsgDropped != 1 {
		t.Fatalf("MsgDropped=%d, want 1", n.MsgDropped)
	}
}

func TestCarriedBytesMatchAcrossQueueModes(t *testing.T) {
	// FIFO counts a packet's bytes on a link when it is accepted for
	// transmission; priority mode used to count them only when service
	// began, skewing the controller's utilization view between the two
	// modes mid-window. Freeze the clock right after enqueue: both modes
	// must already account for both packets on the first hop.
	for _, pq := range []bool{false, true} {
		g, h0, h1 := line(t)
		eng := sim.New()
		cfg := DefaultConfig()
		cfg.PriorityQueueing = pq
		n := New(eng, g, cfg)
		if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
			t.Fatal(err)
		}
		n.SendMessage(1, 3000, nil, nil)
		eng.Run(1e-6) // first packet still serializing, second queued
		lid, _ := g.FindLink(h0, 1)
		if got := n.LinkBytesInto(nil)[lid]; got != 3000 {
			t.Fatalf("pq=%v: first-hop bytes %d at enqueue, want 3000", pq, got)
		}
		if got := n.FlowRatesInto(nil, 1.0)[1]; got != 3000*8 {
			t.Fatalf("pq=%v: flow rate %g, want %g", pq, got, 3000.0*8)
		}
	}
}
