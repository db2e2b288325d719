package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"eprons/internal/fattree"
	"eprons/internal/metrics"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// line builds h0 - sw - h1 with 1 Gbps links.
func line(t testing.TB) (*topology.Graph, topology.NodeID, topology.NodeID) {
	t.Helper()
	g := topology.NewGraph()
	h0 := g.AddNode("h0", topology.Host, 0)
	sw := g.AddNode("sw", topology.EdgeSwitch, 36)
	h1 := g.AddNode("h1", topology.Host, 0)
	if _, err := g.AddLink(h0, sw, 1e9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(sw, h1, 1e9, 0); err != nil {
		t.Fatal(err)
	}
	return g, h0, h1
}

func TestSingleCapPacketLatency(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, g.Node(1).ID, h1}); err != nil {
		t.Fatal(err)
	}
	var got float64 = -1
	n.SendMessage(1, 1500, func(l float64) { got = l }, nil)
	eng.RunAll()
	// Two 12µs serializations + two 2µs hop delays = 28µs.
	want := 28e-6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("latency %g, want %g", got, want)
	}
}

func TestMultiPacketPipelining(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	var got float64 = -1
	n.SendMessage(1, 3000, func(l float64) { got = l }, nil)
	eng.RunAll()
	// Store-and-forward pipeline: second packet departs hop 2 at 38µs,
	// delivered at 40µs.
	want := 40e-6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("latency %g, want %g", got, want)
	}
}

func TestNoRouteDrops(t *testing.T) {
	g, _, _ := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	dropped := false
	n.SendMessage(9, 100, func(float64) { t.Fatal("delivered without route") }, func() { dropped = true })
	eng.RunAll()
	if !dropped || n.Dropped != 1 {
		t.Fatalf("dropped=%v count=%d", dropped, n.Dropped)
	}
}

func TestInactiveLinkDrops(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, 1, h1}); err != nil {
		t.Fatal(err)
	}
	a := topology.NewActiveSet(g)
	lid, _ := g.FindLink(1, h1)
	a.SetLink(lid, false)
	n.SetActive(a)
	drops := 0
	n.SendMessage(1, 1500, func(float64) { t.Fatal("delivered across dead link") }, func() { drops++ })
	eng.RunAll()
	if drops != 1 {
		t.Fatalf("drops %d", drops)
	}
}

func TestInvalidRouteRejected(t *testing.T) {
	g, h0, h1 := line(t)
	n := New(sim.New(), g, DefaultConfig())
	if err := n.SetRoute(1, topology.Path{h0, h1}); err == nil {
		t.Fatal("non-adjacent route accepted")
	}
}

func TestQueueingDelayUnderLoad(t *testing.T) {
	// Two senders share the switch→h1 link; h2's burst arrives over a
	// faster ingress so a backlog builds on the egress and delays h0's
	// packet.
	g := topology.NewGraph()
	h0 := g.AddNode("h0", topology.Host, 0)
	h2 := g.AddNode("h2", topology.Host, 0)
	sw := g.AddNode("sw", topology.EdgeSwitch, 36)
	h1 := g.AddNode("h1", topology.Host, 0)
	caps := []float64{1e9, 10e9, 1e9}
	for i, pair := range [][2]topology.NodeID{{h0, sw}, {h2, sw}, {sw, h1}} {
		if _, err := g.AddLink(pair[0], pair[1], caps[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	n.SetRoute(1, topology.Path{h0, sw, h1})
	n.SetRoute(2, topology.Path{h2, sw, h1})
	// Big burst from h2 first: 15000B = 10 packets = 120µs of sw→h1 time.
	n.SendMessage(2, 15000, nil, nil)
	var lat float64
	eng.Schedule(20e-6, func() {
		n.SendMessage(1, 1500, func(l float64) { lat = l }, nil)
	})
	eng.RunAll()
	if lat < 50e-6 {
		t.Fatalf("expected queueing delay, got %g", lat)
	}
}

func TestUtilizationLatencyKnee(t *testing.T) {
	// The Fig 1 shape: mean query latency at 90% background utilization
	// must far exceed the latency at 20%.
	mean := func(util float64) float64 {
		g, h0, h1 := line(t)
		eng := sim.New()
		n := New(eng, g, DefaultConfig())
		n.SetRoute(1, topology.Path{h0, 1, h1})
		n.SetRoute(2, topology.Path{h0, 1, h1})
		stream := rng.New(42)
		bg := n.StartBackground(2, func() float64 { return util * 1e9 }, stream)
		defer bg.Stop()
		var tr metrics.Tracker
		qs := rng.New(7)
		var sendQuery func()
		sendQuery = func() {
			n.SendMessage(1, 1500, func(l float64) { tr.Add(l) }, nil)
			if tr.Count() < 2000 {
				eng.After(qs.Exp(500e-6), sendQuery)
			}
		}
		eng.After(1e-3, sendQuery)
		eng.Run(10)
		return tr.Mean()
	}
	low := mean(0.20)
	high := mean(0.90)
	if high < 3*low {
		t.Fatalf("no knee: latency at 90%% (%.1fµs) vs 20%% (%.1fµs)", high*1e6, low*1e6)
	}
}

func TestLinkUtilizationMeasurement(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	n.SetRoute(2, topology.Path{h0, 1, h1})
	stream := rng.New(1)
	b := n.StartBackground(2, func() float64 { return 300e6 }, stream)
	eng.Run(2)
	b.Stop()
	utils := n.LinkUtilizationInto(nil, 2)
	lid, _ := g.FindLink(h0, 1)
	if u := utils[lid]; math.Abs(u-0.3) > 0.03 {
		t.Fatalf("measured utilization %.3f, want ~0.30", u)
	}
	if len(n.LinkBytesInto(nil)) == 0 {
		t.Fatal("no bytes recorded")
	}
	n.ResetStats()
	if len(n.LinkBytesInto(nil)) != 0 {
		t.Fatal("reset did not clear counters")
	}
	if len(n.LinkUtilizationInto(nil, 0)) != 0 {
		t.Fatal("zero window must return empty map")
	}
}

func TestBackgroundStopAndZeroRate(t *testing.T) {
	g, h0, h1 := line(t)
	eng := sim.New()
	n := New(eng, g, DefaultConfig())
	n.SetRoute(2, topology.Path{h0, 1, h1})
	rate := 100e6
	b := n.StartBackground(2, func() float64 { return rate }, rng.New(3))
	eng.Run(1)
	before := n.LinkBytesInto(nil)[0]
	if before == 0 {
		t.Fatal("background sent nothing")
	}
	rate = 0 // paused source must survive and send nothing
	eng.Run(2)
	mid := n.LinkBytesInto(nil)[0]
	rate = 100e6
	b.Stop()
	eng.Run(3)
	after := n.LinkBytesInto(nil)[0]
	if after != mid {
		t.Fatalf("stopped background still sending: %d → %d", mid, after)
	}
}

func TestFatTreeEndToEnd(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	n := New(eng, ft.Graph, DefaultConfig())
	src, dst := ft.Hosts[0], ft.Hosts[15]
	path := ft.Paths(src, dst)[0]
	n.SetRoute(1, path)
	var got float64 = -1
	n.SendMessage(1, 1500, func(l float64) { got = l }, nil)
	eng.RunAll()
	// 6 hops of 12µs serialization + 6 hop delays of 2µs = 84µs.
	want := 6*12e-6 + 6*2e-6
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("fat-tree latency %g, want %g", got, want)
	}
}

// Property: message latency is at least the unloaded store-and-forward
// minimum and messages are never lost on an active route.
func TestQuickLatencyLowerBound(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8, size16 uint16) bool {
		src := ft.Hosts[int(a)%len(ft.Hosts)]
		dst := ft.Hosts[int(b)%len(ft.Hosts)]
		if src == dst {
			return true
		}
		size := int(size16)%20000 + 1
		eng := sim.New()
		n := New(eng, ft.Graph, DefaultConfig())
		path := ft.Paths(src, dst)[0]
		n.SetRoute(1, path)
		var got float64 = -1
		n.SendMessage(1, size, func(l float64) { got = l }, nil)
		eng.RunAll()
		if got < 0 {
			return false
		}
		hops := len(path) - 1
		lastPkt := size % n.Cfg.PacketBytes
		if lastPkt == 0 {
			lastPkt = n.Cfg.PacketBytes
		}
		// The last packet alone needs its serialization on every hop plus
		// hop delays.
		minLat := float64(hops)*(float64(lastPkt)*8/1e9+n.Cfg.HopDelay) - 1e-12
		return got >= minLat
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMessageThroughput(b *testing.B) {
	ft, _ := fattree.New(fattree.DefaultConfig())
	eng := sim.New()
	n := New(eng, ft.Graph, DefaultConfig())
	path := ft.Paths(ft.Hosts[0], ft.Hosts[15])[0]
	n.SetRoute(1, path)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendMessage(1, 15000, nil, nil)
		eng.RunAll()
	}
}
