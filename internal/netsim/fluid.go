package netsim

// The hybrid fluid/packet background engine.
//
// Background CBR elephants dominate the event load of every figure sweep —
// a single 0.3-utilization 1 Gbps flow is ~25k events per simulated second
// — yet on an uncongested route their contribution to link busy-time is
// analytically a constant rate. This file folds such flows into per-link
// rate reservations: while every directed link on a source's route is
// below the knee (Cfg.FluidKneeFrac of capacity), the source emits no
// packet events at all; its bytes accrue analytically into the same
// counters the packet path feeds (flowBytes, per-direction link bytes,
// Offered/CarriedBytes) and foreground packets on shared links transmit at
// the residual capacity C − Σ fluid rates. When the total offered
// background rate on any direction crosses the knee, that direction
// demotes: every source routed across it falls back to the exact
// packet-by-packet loop (same closures, same RNG stream), so contention,
// queueing and drop semantics near saturation are unchanged. Promotion
// back to fluid mode uses a 0.9×knee hysteresis band so a source sitting
// at the threshold does not flap.
//
// Correctness constraints encoded here:
//
//   - Sources are fluid-eligible only when their route exists, is fully
//     active, and crosses no demoted direction. Route or active-set
//     changes (SetRoute/SetActive, including fault-injection masks that
//     arrive through SetActive) reevaluate synchronously, so a source
//     whose route just lost an element starts emitting packets that hit
//     the dead hop and drop — identical failure semantics to packet mode.
//
//   - A demoted-then-promoted-then-demoted source must never end up with
//     two live arm/fire loops: each fluid-managed source tracks its one
//     pending engine event and promotion cancels it.
//
//   - The periodic reevaluation tick reschedules itself only while
//     sources are registered, so Engine.RunAll (the drain used by the
//     availability/overload harnesses, which stop their sources first)
//     terminates.
//
//   - Byte accrual floors to whole bytes and carries the remainder, so
//     cumulative counters never drift by more than a byte per source.
//
// Cost model: a reevaluation pass walks the registered sources and only
// the directions that carry state — the ones given offered load, the
// demoted ones and the ones holding a reservation — never the whole link
// array, so an all-to-all elephant set on a large fabric pays for the
// hops its routes cross, not for the fabric. A group push
// (StartBackgrounds, StopBackgrounds, InstallRoutes) is one pass.

import (
	"math"

	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// fluidPromoteFrac is the hysteresis band: a demoted direction promotes
// back to fluid service only when its offered rate falls to this fraction
// of the knee.
const fluidPromoteFrac = 0.9

// fluidSource is one StartBackground source managed by the hybrid engine.
type fluidSource struct {
	fid    flow.ID
	rate   func() float64
	stream *rng.Stream
	b      *Background

	// arm/fire are the exact packet-mode closures (same draws, same
	// 10 ms pause re-poll) used whenever the source is demoted.
	arm, fire func()
	// pend is the single outstanding arm/fire event while in packet
	// mode; promotion cancels it so a later demotion cannot leave two
	// live loops.
	pend    sim.EventID
	hasPend bool

	// fluid is true while the source is folded into link reservations.
	fluid bool
	// rBps is the rate reserved at the last reevaluation (the rate the
	// analytic bytes accrue at until the next poll).
	rBps float64
	// rt is the route the reservation was applied to (accrual credits
	// its hop directions); routed reports whether rt is meaningful.
	rt     topology.RouteRef
	routed bool
	// lastAccrue is the sim time analytic bytes were last credited;
	// frac carries the sub-byte remainder.
	lastAccrue float64
	frac       float64
	// eligible is scratch state within one reevaluation pass.
	eligible bool
}

// fluidState is the engine-wide hybrid state, created lazily on the first
// StartBackground under Cfg.FluidBackground.
type fluidState struct {
	srcs  []*fluidSource
	byFid map[flow.ID]*fluidSource
	// offered accumulates per-direction offered background rate during a
	// reevaluation pass (retained scratch, one slot per direction).
	offered []float64
	// The sparse direction lists a pass works from, each retained across
	// passes: touched holds the directions given nonzero offered load in
	// the last pass, demoted the directions whose knee flag is set, and
	// reserved the directions holding a nonzero fluidBps. Every other
	// direction has zero offered load, a clear knee flag and no
	// reservation, so a pass clears and checks only these entries.
	touched  []int32
	demoted  []int32
	reserved []int32
	// tickArmed guards the single periodic reevaluation event; onTick is
	// its one closure.
	tickArmed bool
	onTick    func()
}

// fluidEnabled reports whether the hybrid engine applies to this network.
// Priority-queueing mode stays packet-exact: the QoS ablation compares
// per-packet scheduling disciplines, which a rate reservation cannot model.
func (n *Network) fluidEnabled() bool {
	return n.Cfg.FluidBackground && !n.Cfg.PriorityQueueing
}

// startFluidBackgrounds registers a group of sources with the hybrid
// engine as one push. Every source starts in packet mode and one
// synchronous reevaluation decides — against current routes, rates and
// knee state — which of them fold into the fluid reservations at once.
// Registrations at one instant only add offered load, so the single pass
// demotes exactly the directions a pass per registration would (see
// StartBackgrounds for the proviso), and the sources it leaves in packet
// mode start their loops in spec order.
func (n *Network) startFluidBackgrounds(bs []*Background, specs []BackgroundSpec, bits float64) {
	f := n.fluid
	if f == nil {
		f = &fluidState{
			byFid:   make(map[flow.ID]*fluidSource),
			offered: make([]float64, len(n.links)),
		}
		f.onTick = func() {
			if len(f.srcs) == 0 {
				// All sources stopped: the tick dies so RunAll drains.
				f.tickArmed = false
				return
			}
			n.fluidReevaluate()
			n.eng.After(n.Cfg.FluidUpdateS, f.onTick)
		}
		n.fluid = f
	}
	first := len(f.srcs)
	for i, sp := range specs {
		n.addFluidSource(bs[i], sp.ID, sp.Rate, sp.Stream, bits)
	}
	added := f.srcs[first:]
	n.fluidReevaluate()
	for i, s := range added {
		if !s.fluid && !s.hasPend {
			// Reevaluation left the source in packet mode: start its loop
			// (first draw identical to the classic packet-mode source).
			s.arm()
		}
		if i == 0 && !f.tickArmed {
			// Armed where a lone registration would arm it, so a zero-rate
			// source's 10 ms re-poll orders against the tick the same way.
			f.tickArmed = true
			n.eng.After(n.Cfg.FluidUpdateS, f.onTick)
		}
	}
}

// addFluidSource builds one source's packet-mode closures and appends it
// to the registry; the caller runs the reevaluation.
func (n *Network) addFluidSource(b *Background, fid flow.ID, rate func() float64, stream *rng.Stream, bits float64) {
	s := &fluidSource{fid: fid, rate: rate, stream: stream, b: b}
	b.n = n
	b.src = s
	// The exact packet-mode loop (see StartBackground): the only
	// differences are the pending-event bookkeeping and the fluid-mode
	// bail, neither of which perturbs the draw sequence.
	s.arm = func() {
		s.hasPend = false
		if b.stop || s.fluid {
			return
		}
		r := s.rate()
		if r <= 0 {
			s.pend = n.eng.After(10e-3, s.arm)
			s.hasPend = true
			return
		}
		s.pend = n.eng.After(s.stream.Exp(bits/r), s.fire)
		s.hasPend = true
	}
	s.fire = func() {
		s.hasPend = false
		if b.stop || s.fluid {
			return
		}
		if rt, ok := n.lookupRoute(s.fid); ok {
			pk := n.acquirePacket()
			pk.fid = s.fid
			pk.rt = rt
			pk.bytes = int32(n.Cfg.PacketBytes)
			pk.hop = 0
			pk.hi = n.highPrio[s.fid]
			pk.msg = nil
			n.stepPacket(pk)
		}
		s.arm()
	}
	n.fluid.srcs = append(n.fluid.srcs, s)
	n.fluid.byFid[fid] = s
}

// stopFluidSources deregisters a group of stopped sources (the caller
// has set b.stop on every one) as one push: accrue each one's analytic
// bytes up to now, cancel any pending packet-mode event, drop them all
// from the registry in one stable compaction (srcs order is the
// per-direction summation order), and let the remaining sources
// re-settle in one pass (a stopped elephant may promote a previously
// demoted direction). Entries whose source is already gone are skipped.
func (n *Network) stopFluidSources(bs []*Background) {
	f := n.fluid
	if f == nil {
		return
	}
	now := n.eng.Now()
	for _, b := range bs {
		s := b.src
		if s == nil {
			continue
		}
		b.src = nil
		if s.fluid {
			n.accrueFluid(s, now)
			s.fluid = false
		}
		if s.hasPend {
			n.eng.Cancel(s.pend)
			s.hasPend = false
		}
		if f.byFid[s.fid] == s {
			delete(f.byFid, s.fid)
		}
	}
	// Every registered source whose Background is stopped is in this
	// push: Stop deregisters a source the moment it is called.
	kept := f.srcs[:0]
	for _, s := range f.srcs {
		if !s.b.stop {
			kept = append(kept, s)
		}
	}
	clear(f.srcs[len(kept):])
	f.srcs = kept
	n.fluidReevaluate()
}

// accrueFluid credits the analytic bytes a fluid source produced since its
// last accrual into exactly the counters the packet path feeds: cumulative
// Offered/CarriedBytes, the controller-polled flowBytes, and the bytes of
// every directed link on its route. Flooring with a carried remainder
// keeps the counters integral without drift.
func (n *Network) accrueFluid(s *fluidSource, now float64) {
	dt := now - s.lastAccrue
	s.lastAccrue = now
	if dt <= 0 || s.rBps <= 0 || !s.routed {
		return
	}
	exact := s.rBps*dt/8 + s.frac
	whole := math.Floor(exact)
	s.frac = exact - whole
	bytes := int64(whole)
	if bytes <= 0 {
		return
	}
	// A fluid source is by construction routed onto a fully active,
	// uncongested path: everything offered is carried.
	n.OfferedBytes += bytes
	n.CarriedBytes += bytes
	n.flowBytes[s.fid] += bytes
	for _, h := range n.arena.Seg(s.rt.Up).Hops {
		n.links[h.Dir].bytes += bytes
	}
	for _, h := range n.arena.Seg(s.rt.Down).Hops {
		n.links[h.Dir].bytes += bytes
	}
}

// fluidAccrueAll brings every fluid source's analytic byte counters up to
// now; the stats readers and ResetStats call it so the controller's
// polled view includes fluid traffic exactly as if it had been packets.
func (n *Network) fluidAccrueAll() {
	f := n.fluid
	if f == nil {
		return
	}
	now := n.eng.Now()
	for _, s := range f.srcs {
		if s.fluid {
			n.accrueFluid(s, now)
		}
	}
}

// fluidReevaluate is the heart of the hybrid engine. It runs synchronously
// on every registration push, deregistration push, SetActive, route
// change of a tracked flow, and on the periodic tick:
//
//  1. accrue all currently fluid sources at their old rates/routes,
//  2. re-poll every source's rate callback (clamped finite, ≥ 0),
//  3. sum offered background rate per directed link over eligible routes,
//  4. apply knee hysteresis per direction (demote above knee, promote
//     below 0.9×knee),
//  5. decide each source's mode (fluid iff routed, fully active, and no
//     demoted direction en route),
//  6. install the new per-direction reservations, and
//  7. run mode transitions: packet→fluid cancels the pending arm/fire
//     event; fluid→packet re-arms the packet loop.
//
// The pass is sparse: it clears only the previous pass's touched and
// reserved directions, promotes only from the demoted list and demotes
// only from the newly touched directions, so its cost is the registered
// sources' hops plus those lists, independent of the fabric's size. Each
// direction's sums still run in srcs order, and a direction either
// promotes or demotes in a pass, never both, exactly as a sweep over
// every direction would decide.
func (n *Network) fluidReevaluate() {
	f := n.fluid
	if f == nil {
		return
	}
	n.fluidReevals++
	now := n.eng.Now()
	// (1) Settle analytic bytes under the outgoing reservations.
	for _, s := range f.srcs {
		if s.fluid {
			n.accrueFluid(s, now)
		}
	}
	// (2)+(3) Poll rates and sum per-direction offered load. Rates of
	// eligible sources are > 0, so a direction's sum is nonzero from its
	// first term on: a zero slot marks a direction not yet touched.
	for _, d := range f.touched {
		f.offered[d] = 0
	}
	f.touched = f.touched[:0]
	for _, s := range f.srcs {
		r := s.rate()
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			r = 0
		}
		s.rBps = r
		rt, ok := n.routes.get(s.fid)
		numOff := 0
		if ok {
			if n.arena.SegEpoch(rt.Up) != n.activeEpoch {
				n.arena.Revalidate(rt.Up, n.active, n.activeEpoch)
			}
			if n.arena.SegEpoch(rt.Down) != n.activeEpoch {
				n.arena.Revalidate(rt.Down, n.active, n.activeEpoch)
			}
			numOff = n.arena.SegNumOff(rt.Up) + n.arena.SegNumOff(rt.Down)
		}
		s.rt, s.routed = rt, ok
		s.eligible = ok && rt.NumHops() > 0 && numOff == 0 && r > 0
		if s.eligible {
			for _, seg := range [2]topology.SegID{rt.Up, rt.Down} {
				for _, h := range n.arena.Seg(seg).Hops {
					if f.offered[h.Dir] == 0 {
						f.touched = append(f.touched, int32(h.Dir))
					}
					f.offered[h.Dir] += r
				}
			}
		}
	}
	// (4) Knee hysteresis per direction: promotions over the demoted
	// list first, then demotions over the touched list. A direction
	// promoted here has offered ≤ 0.9×knee, so it cannot also demote.
	kept := f.demoted[:0]
	for _, d := range f.demoted {
		knee := n.Cfg.FluidKneeFrac * n.dirCap[d]
		if f.offered[d] <= fluidPromoteFrac*knee {
			n.links[d].demoted = false
			n.FluidPromotions++
			continue
		}
		kept = append(kept, d)
	}
	f.demoted = kept
	for _, d := range f.touched {
		ls := &n.links[d]
		if !ls.demoted && f.offered[d] > n.Cfg.FluidKneeFrac*n.dirCap[d] {
			ls.demoted = true
			n.FluidDemotions++
			f.demoted = append(f.demoted, d)
		}
	}
	// (5)+(6) Decide modes and install reservations.
	for _, d := range f.reserved {
		n.links[d].fluidBps = 0
	}
	f.reserved = f.reserved[:0]
	for _, s := range f.srcs {
		want := s.eligible
		if want {
			up, down := n.arena.Seg(s.rt.Up).Hops, n.arena.Seg(s.rt.Down).Hops
			for _, h := range up {
				if n.links[h.Dir].demoted {
					want = false
					break
				}
			}
			if want {
				for _, h := range down {
					if n.links[h.Dir].demoted {
						want = false
						break
					}
				}
			}
			if want {
				for _, hops := range [2][]topology.DirHop{up, down} {
					for _, h := range hops {
						ls := &n.links[h.Dir]
						if ls.fluidBps == 0 {
							f.reserved = append(f.reserved, int32(h.Dir))
						}
						ls.fluidBps += s.rBps
					}
				}
			}
		}
		// (7) Transitions.
		switch {
		case want && !s.fluid:
			s.fluid = true
			s.lastAccrue = now
			s.frac = 0
			if s.hasPend {
				n.eng.Cancel(s.pend)
				s.hasPend = false
			}
		case !want && s.fluid:
			s.fluid = false
			if !s.b.stop && !s.hasPend {
				s.arm()
			}
		case want:
			// Staying fluid: accrual already settled at the old rate;
			// future bytes accrue at the freshly polled rBps.
			s.lastAccrue = now
		}
	}
}
