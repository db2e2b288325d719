package netsim

import (
	"math"
	"testing"

	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// fluidPair builds two identical 4-hop chains, one with the hybrid fluid
// engine enabled, so tests can run the same traffic through both and
// compare.
func fluidPair(tb testing.TB, mutate func(*Config)) (engP, engF *sim.Engine, netP, netF *Network) {
	tb.Helper()
	cfgP := DefaultConfig()
	if mutate != nil {
		mutate(&cfgP)
	}
	cfgF := cfgP
	cfgF.FluidBackground = true
	engP, netP = benchChain(tb, cfgP)
	engF, netF = benchChain(tb, cfgF)
	return engP, engF, netP, netF
}

// TestFluidUtilizationMatchesPacket: on an uncongested route the fluid
// reservation must reproduce the packet path's per-link utilization and
// byte counters within sampling tolerance (the packet run is a Poisson
// realization of the same offered rate; over ~50k packets its relative
// deviation is well under 1%).
func TestFluidUtilizationMatchesPacket(t *testing.T) {
	engP, engF, netP, netF := fluidPair(t, nil)
	const util, durS = 0.30, 2.0
	rate := func() float64 { return util * 1e9 }
	bp := netP.StartBackground(1, rate, rng.New(7))
	bf := netF.StartBackground(1, rate, rng.New(7))
	engP.Run(durS)
	engF.Run(durS)
	bp.Stop()
	bf.Stop()

	up := netP.LinkUtilizationInto(nil, durS)
	uf := netF.LinkUtilizationInto(nil, durS)
	if len(uf) != len(up) {
		t.Fatalf("link sets differ: packet %d fluid %d", len(up), len(uf))
	}
	for lid, u := range up {
		f := uf[lid]
		if math.Abs(f-u) > 0.02*util {
			t.Errorf("link %d: packet util %.5f fluid util %.5f (>2%% apart)", lid, u, f)
		}
		if math.Abs(f-util) > 0.001*util {
			t.Errorf("link %d: fluid util %.6f not analytic %.2f", lid, f, util)
		}
	}
	// Per-flow rate view the controller polls must agree too.
	rp := netP.FlowRatesInto(nil, durS)[1]
	rf := netF.FlowRatesInto(nil, durS)[1]
	if math.Abs(rf-rp) > 0.02*util*1e9 {
		t.Errorf("flow rate: packet %.0f fluid %.0f", rp, rf)
	}
	if netF.FluidDemotions != 0 || netF.Dropped != 0 {
		t.Errorf("uncongested fluid run demoted (%d) or dropped (%d)", netF.FluidDemotions, netF.Dropped)
	}
}

// TestFluidEventCountReduction: the point of the fast path — an
// uncongested background flow must cost orders of magnitude fewer engine
// events in fluid mode than packet mode.
func TestFluidEventCountReduction(t *testing.T) {
	engP, engF, netP, netF := fluidPair(t, nil)
	rate := func() float64 { return 0.30 * 1e9 }
	bp := netP.StartBackground(1, rate, rng.New(7))
	bf := netF.StartBackground(1, rate, rng.New(7))
	engP.Run(2.0)
	engF.Run(2.0)
	bp.Stop()
	bf.Stop()
	if netF.CarriedBytes == 0 {
		t.Fatal("fluid run carried nothing")
	}
	if engF.Processed*10 > engP.Processed {
		t.Errorf("fluid processed %d events vs packet %d — want >=10x reduction",
			engF.Processed, engP.Processed)
	}
}

// TestFluidDemotionExactAtKnee: a flow offered past the knee fraction must
// demote to packet mode at registration and from then on be byte-for-byte
// identical to the pure packet simulator — same RNG stream, same arrival
// times, same tail drops against a finite buffer.
func TestFluidDemotionExactAtKnee(t *testing.T) {
	engP, engF, netP, netF := fluidPair(t, func(c *Config) { c.QueueLimitBytes = 8 * 1500 })
	const util = 0.95 // past the 0.8 knee
	rate := func() float64 { return util * 1e9 }
	bp := netP.StartBackground(1, rate, rng.New(7))
	bf := netF.StartBackground(1, rate, rng.New(7))
	engP.Run(2.0)
	engF.Run(2.0)
	bp.Stop()
	bf.Stop()
	engP.RunAll()
	engF.RunAll()

	if netF.FluidDemotions == 0 {
		t.Fatal("no demotion at 0.95 offered utilization")
	}
	if netP.TailDrops == 0 {
		t.Fatal("packet reference saw no tail drops — test not exercising the buffer")
	}
	if netF.TailDrops != netP.TailDrops || netF.Dropped != netP.Dropped {
		t.Errorf("drop counts differ: fluid tail=%d drop=%d, packet tail=%d drop=%d",
			netF.TailDrops, netF.Dropped, netP.TailDrops, netP.Dropped)
	}
	if netF.CarriedBytes != netP.CarriedBytes || netF.OfferedBytes != netP.OfferedBytes {
		t.Errorf("byte counters differ: fluid %d/%d packet %d/%d",
			netF.CarriedBytes, netF.OfferedBytes, netP.CarriedBytes, netP.OfferedBytes)
	}
	bpB := netP.LinkBytesInto(nil)
	bfB := netF.LinkBytesInto(nil)
	for lid, b := range bpB {
		if bfB[lid] != b {
			t.Errorf("link %d bytes differ: fluid %d packet %d", lid, bfB[lid], b)
		}
	}
}

// TestFluidQueryLatencyResidualCapacity: latency-sensitive messages share
// a link with a fluid background reservation and must see the residual
// capacity — slower than an idle link, within a pinned tolerance of the
// packet-mode mean (fluid smooths the M/D/1 queueing jitter into a
// deterministic rate reduction; at 0.3 background utilization the two
// agree within ~35%).
func TestFluidQueryLatencyResidualCapacity(t *testing.T) {
	engP, engF, netP, netF := fluidPair(t, nil)
	const util = 0.30
	rate := func() float64 { return util * 1e9 }
	bp := netP.StartBackground(1, rate, rng.New(7))
	bf := netF.StartBackground(1, rate, rng.New(7))
	// A second flow on the same path carries the queries.
	rtP, _ := netP.Route(1)
	rtF, _ := netF.Route(1)
	if err := netP.SetRoute(2, rtP); err != nil {
		t.Fatal(err)
	}
	if err := netF.SetRoute(2, rtF); err != nil {
		t.Fatal(err)
	}
	var sumP, sumF float64
	var nP, nF int
	qs := rng.New(99)
	for i := 0; i < 400; i++ {
		at := 0.002 + float64(i)*0.004 + qs.Float64()*0.001
		engP.Schedule(at, func() { netP.SendMessage(2, 3000, func(l float64) { sumP += l; nP++ }, nil) })
		engF.Schedule(at, func() { netF.SendMessage(2, 3000, func(l float64) { sumF += l; nF++ }, nil) })
	}
	engP.Run(2.0)
	engF.Run(2.0)
	bp.Stop()
	bf.Stop()
	engP.RunAll()
	engF.RunAll()
	if nP != 400 || nF != 400 {
		t.Fatalf("deliveries: packet %d fluid %d (want 400)", nP, nF)
	}
	meanP, meanF := sumP/float64(nP), sumF/float64(nF)
	idle := 4 * (1500 * 8 / 1e9) // 4 hops of idle-link serialization, no queueing
	if meanF <= idle {
		t.Errorf("fluid mean latency %.3g not above idle-link bound %.3g — residual capacity not applied", meanF, idle)
	}
	if r := meanF / meanP; r < 0.65 || r > 1.35 {
		t.Errorf("fluid/packet mean latency ratio %.3f outside pinned [0.65, 1.35] (fluid %.3g packet %.3g)", r, meanF, meanP)
	}
}

// TestFluidPromoteDemoteMidRun: a rate step over the knee demotes the
// shared directions at the next reevaluation; stepping back down promotes
// them, and the byte counters still account for every phase.
func TestFluidPromoteDemoteMidRun(t *testing.T) {
	eng, n := benchChain(t, Config{FluidBackground: true})
	now := func() float64 { return eng.Now() }
	rate := func() float64 {
		t := now()
		if t >= 0.5 && t < 1.0 {
			return 0.95 * 1e9
		}
		return 0.30 * 1e9
	}
	b := n.StartBackground(1, rate, rng.New(7))
	eng.Run(1.5)
	b.Stop()
	eng.RunAll()
	if n.FluidDemotions == 0 {
		t.Error("no demotion after rate step above knee")
	}
	if n.FluidPromotions == 0 {
		t.Error("no promotion after rate step back below knee")
	}
	// 0.5s at 0.3, 0.5s at 0.95, 0.5s at 0.3 → expected bytes within a
	// few percent (packet-mode phase is a Poisson realization).
	want := (0.3*1.0 + 0.95*0.5) * 1e9 / 8
	got := float64(n.CarriedBytes)
	if math.Abs(got-want) > 0.05*want {
		t.Errorf("carried bytes %.3g, want %.3g ±5%%", got, want)
	}
}

// TestFluidRouteDeactivationDemotes: powering off an element on a fluid
// source's route must synchronously demote it to packet mode (reservation
// released) so its packets hit the dead hop and drop — identical failure
// semantics to packet mode.
func TestFluidRouteDeactivationDemotes(t *testing.T) {
	eng, n := benchChain(t, Config{FluidBackground: true})
	b := n.StartBackground(1, func() float64 { return 0.30 * 1e9 }, rng.New(7))
	eng.Run(0.5)
	if n.Dropped != 0 {
		t.Fatalf("drops before deactivation: %d", n.Dropped)
	}
	// Kill the middle link (s2-s3).
	act := n.Active().Clone()
	act.SetLink(n.Graph().Links()[2].ID, false)
	n.SetActive(act)
	for di := range n.links {
		if n.links[di].fluidBps != 0 {
			t.Fatalf("dir %d still holds a fluid reservation after route deactivation", di)
		}
	}
	eng.Run(1.0)
	b.Stop()
	eng.RunAll()
	if n.Dropped == 0 {
		t.Error("no drops after route deactivation — source did not fall back to packets")
	}
	// Reactivate: the source must fold back into fluid service.
	pre := n.FluidDemotions
	n.SetActive(topology.NewActiveSet(n.Graph()))
	_ = pre
	b2 := n.StartBackground(3, func() float64 { return 0 }, rng.New(8)) // keep engine sources alive
	b2.Stop()
}

// TestFluidStopReleasesEverything: stopping every source must release all
// reservations and let the engine drain (the reevaluation tick dies when
// no sources remain — the RunAll termination contract of the
// availability/overload harnesses).
func TestFluidStopReleasesEverything(t *testing.T) {
	eng, n := benchChain(t, Config{FluidBackground: true})
	b := n.StartBackground(1, func() float64 { return 0.30 * 1e9 }, rng.New(7))
	eng.Run(1.0)
	b.Stop()
	eng.RunAll() // must terminate
	for di := range n.links {
		if n.links[di].fluidBps != 0 {
			t.Fatalf("dir %d reservation leaked after stop", di)
		}
	}
	if eng.Len() != 0 {
		t.Fatalf("%d live events after drain", eng.Len())
	}
	if err := eng.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	// Bytes carried must be within tolerance of rate×time.
	want := 0.30 * 1e9 * 1.0 / 8
	if got := float64(n.CarriedBytes); math.Abs(got-want) > 0.01*want {
		t.Errorf("carried %.3g want %.3g ±1%%", got, want)
	}
}

// checkFluidDense runs one reevaluation pass and checks it against a
// dense reference computed by brute force over every direction and every
// source from the knee flags the pass started with: per-direction offered
// load and reservations summed in registration order, the hysteresis rule
// applied to every direction, each source's mode, and the knee counters.
// It also checks the sparse lists: reserved covers every nonzero
// reservation, demoted is exactly the flagged directions, and touched is
// exactly the directions with offered load.
func checkFluidDense(t *testing.T, n *Network) {
	t.Helper()
	f := n.fluid
	if f == nil {
		return
	}
	nd := len(n.links)
	prevDemoted := make([]bool, nd)
	for d := range n.links {
		prevDemoted[d] = n.links[d].demoted
	}
	dem0, prom0 := n.FluidDemotions, n.FluidPromotions
	n.fluidReevaluate()

	hops := func(s *fluidSource) []topology.DirHop {
		rt, _ := n.routes.get(s.fid)
		return append(append([]topology.DirHop(nil), n.arena.Seg(rt.Up).Hops...), n.arena.Seg(rt.Down).Hops...)
	}
	offered := make([]float64, nd)
	eligible := make([]bool, len(f.srcs))
	rates := make([]float64, len(f.srcs))
	for i, s := range f.srcs {
		r := s.rate()
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			r = 0
		}
		rates[i] = r
		rt, ok := n.routes.get(s.fid)
		eligible[i] = ok && rt.NumHops() > 0 && n.arena.SegNumOff(rt.Up)+n.arena.SegNumOff(rt.Down) == 0 && r > 0
		if eligible[i] {
			for _, h := range hops(s) {
				offered[h.Dir] += r
			}
		}
	}
	demoted := make([]bool, nd)
	var dem, prom int64
	for d := range demoted {
		knee := fluidKneeFrac * n.dirCap[d]
		demoted[d] = prevDemoted[d]
		if !prevDemoted[d] && offered[d] > knee {
			demoted[d] = true
			dem++
		} else if prevDemoted[d] && offered[d] <= fluidPromoteFrac*knee {
			demoted[d] = false
			prom++
		}
	}
	reserve := make([]float64, nd)
	for i, s := range f.srcs {
		want := eligible[i]
		if want {
			for _, h := range hops(s) {
				want = want && !demoted[h.Dir]
			}
		}
		if want {
			for _, h := range hops(s) {
				reserve[h.Dir] += rates[i]
			}
		}
		if s.fluid != want {
			t.Fatalf("flow %d: fluid=%v, dense reference says %v", s.fid, s.fluid, want)
		}
	}
	if got := n.FluidDemotions - dem0; got != dem {
		t.Fatalf("pass demoted %d directions, dense reference %d", got, dem)
	}
	if got := n.FluidPromotions - prom0; got != prom {
		t.Fatalf("pass promoted %d directions, dense reference %d", got, prom)
	}
	listed := func(l []int32) []bool {
		in := make([]bool, nd)
		for _, d := range l {
			if in[d] {
				t.Fatalf("direction %d listed twice", d)
			}
			in[d] = true
		}
		return in
	}
	inReserved, inDemoted, inTouched := listed(f.reserved), listed(f.demoted), listed(f.touched)
	for d := range n.links {
		ls := &n.links[d]
		if ls.demoted != demoted[d] {
			t.Fatalf("dir %d demoted=%v, dense reference says %v", d, ls.demoted, demoted[d])
		}
		if math.Float64bits(ls.fluidBps) != math.Float64bits(reserve[d]) {
			t.Fatalf("dir %d reservation %v, dense reference %v", d, ls.fluidBps, reserve[d])
		}
		if math.Float64bits(f.offered[d]) != math.Float64bits(offered[d]) {
			t.Fatalf("dir %d offered %v, dense reference %v", d, f.offered[d], offered[d])
		}
		if ls.fluidBps != 0 && !inReserved[d] {
			t.Fatalf("dir %d holds reservation %v outside the reserved list", d, ls.fluidBps)
		}
		if inDemoted[d] != ls.demoted {
			t.Fatalf("dir %d: demoted list %v, knee flag %v", d, inDemoted[d], ls.demoted)
		}
		if inTouched[d] != (offered[d] != 0) {
			t.Fatalf("dir %d: touched list %v, offered %v", d, inTouched[d], offered[d])
		}
	}
}

// FuzzFluidPromoteDemote drives a fluid network through an arbitrary
// schedule of rate steps, active-set flaps and batched background starts
// and stops, and asserts the structural invariants of the hybrid engine:
// every pass matches the dense reference (checkFluidDense), reservations
// never exceed the knee, no reservation survives on a demoted direction
// or after all sources stop, byte accounting stays conserving, and the
// engine drains.
//
// Each ops byte is one step's push: bits 0-1 pick the op (1 starts a
// group, 2 stops one, else none), bits 2-3 the group size minus one,
// bit 4 the route (forward or reverse chain) and bits 5-7 the rate.
func FuzzFluidPromoteDemote(f *testing.F) {
	f.Add(int64(1), []byte{10, 200, 10, 255, 0, 10}, []byte{0xff}, []byte{0x0d, 0, 0xe1, 0x06, 0x02})
	f.Add(int64(7), []byte{255, 255, 0, 0, 120, 130, 140}, []byte{0x01, 0x02}, []byte{0xfd, 0x31, 0x0e, 0x02, 0xfd})
	f.Add(int64(42), []byte{}, []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, seed int64, steps []byte, flaps []byte, ops []byte) {
		if len(steps) > 64 {
			steps = steps[:64]
		}
		if len(flaps) > 16 {
			flaps = flaps[:16]
		}
		if len(ops) > 16 {
			ops = ops[:16]
		}
		eng, n := benchChain(t, Config{FluidBackground: true, QueueLimitBytes: 16 * 1500})
		// Second flow sharing the middle links, reversed direction on the
		// outer ones is not possible on a chain, so share the same path.
		// Pushed groups ride it forward or reversed.
		rt, _ := n.Route(1)
		if err := n.SetRoute(2, rt); err != nil {
			t.Fatal(err)
		}
		rev := make(topology.Path, len(rt))
		for i, v := range rt {
			rev[len(rt)-1-i] = v
		}
		idx := func() int {
			i := int(eng.Now() / 0.05)
			if i < 0 {
				i = 0
			}
			return i
		}
		rate1 := func() float64 {
			if len(steps) == 0 {
				return 0.2e9
			}
			return float64(steps[idx()%len(steps)]) / 255.0 * 1.1e9
		}
		rate2 := func() float64 {
			if len(steps) == 0 {
				return 0.1e9
			}
			return float64(steps[(idx()+1)%len(steps)]) / 255.0 * 0.6e9
		}
		b1 := n.StartBackground(1, rate1, rng.New(seed))
		b2 := n.StartBackground(2, rate2, rng.New(seed+1))
		// Flap links according to the flap bytes, one decision per 0.1s.
		for i, fb := range flaps {
			fb := fb
			eng.Schedule(0.1*float64(i+1), func() {
				act := n.Active().Clone()
				for li, l := range n.Graph().Links() {
					on := fb&(1<<(li%8)) == 0
					act.SetLink(l.ID, on)
				}
				n.SetActive(act)
			})
		}
		dur := 0.05 * float64(len(steps)+2)
		if dur < 0.2 {
			dur = 0.2
		}
		// Batched pushes, one per step inside the run (a start during the
		// drain would never stop), in the middle of a tick period.
		var extra []*Background
		nextID := flow.ID(10)
		for i, op := range ops {
			at := 0.05*float64(i) + 0.025
			if at >= dur {
				break
			}
			eng.Schedule(at, func() {
				size := int(op>>2&3) + 1
				switch op & 3 {
				case 1:
					p := rt
					if op&0x10 != 0 {
						p = rev
					}
					r := float64(op>>5) / 7 * 0.5e9
					var specs []BackgroundSpec
					for j := 0; j < size; j++ {
						if err := n.SetRoute(nextID, p); err != nil {
							t.Fatal(err)
						}
						specs = append(specs, BackgroundSpec{ID: nextID, Rate: func() float64 { return r }, Stream: rng.New(seed + int64(nextID))})
						nextID++
					}
					extra = append(extra, n.StartBackgrounds(specs)...)
				case 2:
					if size > len(extra) {
						size = len(extra)
					}
					n.StopBackgrounds(extra[:size])
					extra = extra[size:]
				}
				checkFluidDense(t, n)
			})
		}
		// Dense check after every rate step, off the tick instants.
		for i := 0; 0.05*float64(i)+0.0125 < dur; i++ {
			eng.Schedule(0.05*float64(i)+0.0125, func() { checkFluidDense(t, n) })
		}
		eng.Run(dur)
		// Invariant: reservations bounded by the knee, none on demoted dirs.
		for di := range n.links {
			ls := &n.links[di]
			if ls.fluidBps > fluidKneeFrac*n.dirCap[di]+1e-6 {
				t.Fatalf("dir %d reservation %.3g exceeds knee %.3g", di, ls.fluidBps, fluidKneeFrac*n.dirCap[di])
			}
			if ls.demoted && ls.fluidBps != 0 {
				t.Fatalf("dir %d demoted but holds reservation %.3g", di, ls.fluidBps)
			}
		}
		if n.FluidPromotions > n.FluidDemotions {
			t.Fatalf("promotions %d exceed demotions %d", n.FluidPromotions, n.FluidDemotions)
		}
		n.StopBackgrounds(append([]*Background{b1, b2}, extra...))
		checkFluidDense(t, n)
		eng.RunAll() // must terminate
		for di := range n.links {
			if n.links[di].fluidBps != 0 {
				t.Fatalf("dir %d reservation leaked after stop", di)
			}
		}
		if n.OfferedBytes < n.CarriedBytes {
			t.Fatalf("carried %d exceeds offered %d", n.CarriedBytes, n.OfferedBytes)
		}
		if eng.Len() != 0 {
			t.Fatalf("%d live events after drain", eng.Len())
		}
		if err := eng.AuditInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
