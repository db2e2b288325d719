package netsim

import (
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// benchChain builds h0 - s1 - s2 - s3 - h1 with a route for flow 1, the
// 4-hop path a query takes across a consolidated fat-tree.
func benchChain(tb testing.TB, cfg Config) (*sim.Engine, *Network) {
	tb.Helper()
	g := topology.NewGraph()
	h0 := g.AddNode("h0", topology.Host, 0)
	s1 := g.AddNode("s1", topology.EdgeSwitch, 36)
	s2 := g.AddNode("s2", topology.AggSwitch, 36)
	s3 := g.AddNode("s3", topology.EdgeSwitch, 36)
	h1 := g.AddNode("h1", topology.Host, 0)
	path := topology.Path{h0, s1, s2, s3, h1}
	for i := 0; i < len(path)-1; i++ {
		if _, err := g.AddLink(path[i], path[i+1], 1e9, 0); err != nil {
			tb.Fatal(err)
		}
	}
	eng := sim.New()
	n := New(eng, g, cfg)
	if err := n.SetRoute(1, path); err != nil {
		tb.Fatal(err)
	}
	return eng, n
}

// BenchmarkNetsimForward measures the steady-state per-message cost of the
// packet pipeline: one 3 KB message (2 packets) forwarded over 4 hops and
// drained per iteration. The engine and network are reused across
// iterations so the packet/message pools and the event arena are warm;
// allocs/op is the headline metric (target: 0 — SendMessage in steady state
// allocates nothing but caller callbacks, and this caller passes none).
func BenchmarkNetsimForward(b *testing.B) {
	eng, n := benchChain(b, DefaultConfig())
	delivered := 0
	onDone := func(float64) { delivered++ }
	// Warm the pools and the event arena.
	for i := 0; i < 64; i++ {
		n.SendMessage(1, 3000, onDone, nil)
	}
	eng.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendMessage(1, 3000, onDone, nil)
		eng.RunAll()
	}
	if n.Dropped != 0 {
		b.Fatalf("unexpected drops: %d", n.Dropped)
	}
	_ = delivered
}

// BenchmarkNetsimForwardDeepQueue measures forwarding under a deep FIFO
// queue: one 4096-packet message sent at a single instant onto the 4-hop
// chain, so its first link queues every packet behind the one in service,
// as saturated links do in the k=16 Fig 10 cell. Only each direction's
// head packet holds an event, so the scheduler's heap stays a few entries
// deep however long the queue grows.
func BenchmarkNetsimForwardDeepQueue(b *testing.B) {
	eng, n := benchChain(b, DefaultConfig())
	size := 4096 * n.Cfg.PacketBytes
	n.SendMessage(1, size, nil, nil) // warm the pools and the event arena
	eng.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendMessage(1, size, nil, nil)
		eng.RunAll()
	}
	if n.Dropped != 0 {
		b.Fatalf("unexpected drops: %d", n.Dropped)
	}
}

// benchBackground drives one 300 Mbps background elephant over the 4-hop
// chain and advances simulated time 10 ms per iteration, reporting the
// event cost per op. The fluid sub-benchmark folds the elephant into an
// analytic link reservation (one periodic tick instead of ~250 packet
// events per op); the packet sub-benchmark is the exact baseline.
func benchBackground(b *testing.B, fluidOn bool) {
	cfg := DefaultConfig()
	cfg.FluidBackground = fluidOn
	eng, n := benchChain(b, cfg)
	bg := n.StartBackground(1, func() float64 { return 0.3e9 }, rng.Derive(1, "bg-bench"))
	eng.Run(0.05) // warm pools, reach steady state
	start := eng.Processed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + 0.01)
	}
	b.StopTimer()
	b.ReportMetric(float64(eng.Processed-start)/float64(b.N), "events/op")
	bg.Stop()
	eng.RunAll()
	if n.Dropped != 0 {
		b.Fatalf("unexpected drops at 30%% utilization: %d", n.Dropped)
	}
}

func BenchmarkNetsimBackgroundPacket(b *testing.B) { benchBackground(b, false) }
func BenchmarkNetsimBackgroundFluid(b *testing.B)  { benchBackground(b, true) }

// BenchmarkNetsimBackgroundRegister measures the registration cost of the
// Fig 10 k=32 background: one StartBackgrounds plus one StopBackgrounds of
// the 992 all-to-all pod elephants (one per ordered pod pair, spread over
// the source pod's hosts) on the 8192-host fat-tree with the fluid engine
// on. Each elephant follows its first candidate path at 20% of link rate,
// so the core uplinks cross the knee and the push exercises demotion as
// well as reservation. The fabric and routes are built outside the timer.
func BenchmarkNetsimBackgroundRegister(b *testing.B) {
	ft, err := fattree.New(fattree.Config{K: 32, LinkCapacityBps: 1e9, SwitchPowerW: 36})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.FluidBackground = true
	eng := sim.New()
	n := New(eng, ft.Graph, cfg)
	k := ft.Cfg.K
	hostsPerPod := len(ft.Hosts) / k
	rate := func() float64 { return 0.2e9 }
	var specs []BackgroundSpec
	for sp := 0; sp < k; sp++ {
		for dp := 0; dp < k; dp++ {
			if sp == dp {
				continue
			}
			id := flow.ID(len(specs))
			src, dst := ft.Hosts[sp*hostsPerPod+dp%hostsPerPod], ft.Hosts[dp*hostsPerPod+sp%hostsPerPod]
			if err := n.SetRoute(id, ft.PathByIndex(src, dst, 0)); err != nil {
				b.Fatal(err)
			}
			specs = append(specs, BackgroundSpec{ID: id, Rate: rate, Stream: rng.Derive(1, "bg-register")})
		}
	}
	// Each round drains the engine: it discards the packet-mode events the
	// stop cancelled and lets the fluid tick die, so the heap does not grow
	// with b.N. One round before the timer grows the engine to its peak.
	round := func() {
		n.StopBackgrounds(n.StartBackgrounds(specs))
		eng.RunAll()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	if n.FluidDemotions == 0 {
		b.Fatal("registration push crossed no knee")
	}
}

// BenchmarkNetsimForwardPriority is the same pipeline in two-class
// strict-priority mode (the QoS ablation path).
func BenchmarkNetsimForwardPriority(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PriorityQueueing = true
	eng, n := benchChain(b, cfg)
	n.SetPriority(1, true)
	delivered := 0
	onDone := func(float64) { delivered++ }
	for i := 0; i < 64; i++ {
		n.SendMessage(1, 3000, onDone, nil)
	}
	eng.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SendMessage(1, 3000, onDone, nil)
		eng.RunAll()
	}
	if n.Dropped != 0 {
		b.Fatalf("unexpected drops: %d", n.Dropped)
	}
	_ = delivered
}
