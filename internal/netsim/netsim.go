// Package netsim is a packet-level discrete-event simulator of the
// data-center network. It replaces the paper's MiniNet/Open vSwitch
// emulation: store-and-forward switches with FIFO output queues, per-link
// serialization at the configured capacity, background (latency-tolerant)
// packet flows and request/reply messages whose end-to-end latency is
// measured per message.
//
// Queueing delay emerges naturally from FIFO serialization, reproducing the
// utilization-latency knee of the paper's Fig 1: latency is flat at low
// utilization and explodes as a link approaches saturation.
//
// Three performance structures keep the hot path cheap:
//
//   - A flyweight route plane: routes live in a topology.SegmentArena as
//     interned up/down segments of preresolved per-hop directed-link
//     records, so a flow's route is a 12-byte RouteRef value into shared
//     backing instead of a per-flow heap object, and forwarding a packet
//     is pure array arithmetic — no FindLink map lookup, no per-hop
//     ActiveSet probe. Active-set changes bump an epoch; a segment
//     lazily revalidates its per-hop on/off mask the first time a packet
//     touches it afterwards, preserving the exact drop semantics of
//     per-hop activity checks. Routes can also materialize on demand: an
//     optional resolver (SetRouteResolver) supplies paths at first use,
//     so large fabrics never precompute the all-pairs route table.
//
//   - An optional hybrid fluid/packet background engine (see fluid.go):
//     uncongested constant-bit-rate background flows fold into per-link
//     analytic rate reservations instead of being simulated packet by
//     packet, demoting back to packet mode near the congestion knee.
//
//   - Per-direction FIFO departure queues: the packets in flight from one
//     link direction wait in a list on that direction, and only the head
//     holds an engine event (see enqueueDeparture), so a saturated link's
//     queue costs the scheduler one heap entry, not one per packet.
//
// The packet plane holds no pointers: packets live in a paged arena and
// are named by int32 index (see packet), queues link them by index, and
// their hop events are the engine's typed events (sim.Engine.Handle), one
// handler per network instead of one closure per packet. A deep-queue
// cell's hundreds of thousands of in-flight packets are therefore never
// scanned or write-barriered by the garbage collector.
package netsim

import (
	"fmt"

	"eprons/internal/flow"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/xslice"
)

// Config sets the fixed per-element delays and the optional fluid
// background fast path.
type Config struct {
	// PacketBytes is the MTU used to segment messages and background
	// traffic (default 1500).
	PacketBytes int
	// HopDelay is the fixed per-hop processing+propagation delay in
	// seconds (default 2µs, a software-switch figure).
	HopDelay float64
	// QueueLimitBytes bounds each directed link's output queue; a packet
	// arriving at a full queue is tail-dropped. 0 (default) models
	// infinite buffers, which is what the latency-centric experiments
	// assume — the SLA dies of queueing delay long before real buffers
	// overflow.
	QueueLimitBytes int
	// PriorityQueueing switches every link to two-class strict-priority
	// (non-preemptive) scheduling: flows marked with SetPriority jump
	// ahead of best-effort packets. The paper's fabric is FIFO — this
	// mode exists for the "why not QoS instead of the scale factor K?"
	// ablation. Incompatible with QueueLimitBytes.
	PriorityQueueing bool
	// FluidBackground enables the hybrid fluid/packet fast path for
	// background sources started with StartBackground: while every
	// directed link on a source's route stays below the knee, the source
	// is folded into an analytic per-link rate reservation (foreground
	// packets transmit at the residual capacity) instead of being
	// simulated packet by packet. Links whose total offered background
	// rate crosses the knee (80% of capacity) demote to packet mode so
	// drop/contention semantics near saturation are unchanged. Off by
	// default — with it off, simulation output is bit-identical to the
	// pre-fluid implementation. Ignored under PriorityQueueing (the QoS
	// ablation is packet-exact by construction).
	FluidBackground bool
}

// DefaultConfig returns MiniNet-like defaults.
func DefaultConfig() Config {
	return Config{PacketBytes: 1500, HopDelay: 2e-6}
}

func (c *Config) fill() {
	if c.PacketBytes <= 0 {
		c.PacketBytes = 1500
	}
	if c.HopDelay < 0 {
		c.HopDelay = 0
	}
}

// linkState is the FIFO server for one link direction. busyUntil is the
// departure time of the last queued bit; a packet arriving at t starts
// transmitting at max(t, busyUntil).
//
// qHead..qTail is the direction's departure queue: the packets that left
// this direction and are waiting to arrive at the next hop, linked through
// packet.next in (time, seq) order. Only qHead's step event sits in the
// engine heap; the rest wait here until the packet ahead of them fires
// (see enqueueDeparture). Both are packet indices; 0 is an empty queue.
//
// linkState holds no pointer, so the collector never scans the links
// array (two entries per fabric link, ~49k at k=32); the priority-mode
// queues live apart in pqLink.
type linkState struct {
	busyUntil float64
	bytes     int64 // forwarded bytes since the last stats reset
	qHead     int32
	qTail     int32

	// Fluid-background state: fluidBps is the analytic background rate
	// currently reserved on this direction (foreground packets transmit
	// at capacity − fluidBps); demoted is the sticky knee flag — while
	// set, sources routed across this direction run in packet mode.
	fluidBps float64
	demoted  bool
}

// pqLink is one link direction's priority-mode state: two-class queues of
// packet indices, read through a head cursor so dequeues reuse the backing
// arrays instead of slicing them away (zero steady-state allocation).
// inService is the packet currently transmitting (0 when idle).
type pqLink struct {
	hiQ       []int32
	loQ       []int32
	hiHead    int
	loHead    int
	inService int32
	busy      bool
}

// packet is one in-flight MTU-or-smaller unit moving hop by hop along its
// route. Packets live in the Network's paged arena and are named by int32
// index (0 is no packet), and the struct holds no pointer of any kind, so
// the collector neither scans the arena nor barriers writes to it. Each
// hop is a typed engine event of the network's step kind with the packet's
// index as its argument. rt is the flyweight route value the packet
// launched with: arena segments are append-only, so the ref stays valid
// for the packet's whole flight and replacing the flow's route mid-flight
// (SetRoute) does not redirect packets already in the fabric — exactly the
// semantics of carrying the path by value. msg indexes the message pool;
// it is 0 for background packets, which have no delivery accounting.
//
// next, at and seq are the packet's place in a departure queue: next is
// the packet behind it and (at, seq) the event key it fires under. The
// queue itself is not stored: a packet firing at hop h > 0 left on the
// direction of its route's hop h-1 (see dequeueDeparture). A free packet
// links the arena's free list through next.
type packet struct {
	fid   flow.ID
	rt    topology.RouteRef
	bytes int32
	hop   int32
	msg   int32
	next  int32
	hi    bool
	at    float64
	seq   int64
}

// Packet-arena geometry: packet i lives at page i>>pktPageShift, offset
// i&pktPageMask. Pages never move, so a *packet stays valid while the
// arena grows. A 256-packet page is 14 KB, so a small fabric's network
// pays little for its first page and a deep-queue cell's ~800k packets
// take ~3k page allocations.
const (
	pktPageShift = 8
	pktPageSize  = 1 << pktPageShift
	pktPageMask  = pktPageSize - 1
)

// Network couples a topology with an event engine and carries traffic.
type Network struct {
	Cfg    Config
	eng    *sim.Engine
	g      *topology.Graph
	active *topology.ActiveSet
	// activeEpoch increments on every SetActive; routes lazily revalidate
	// their per-hop on/off masks against it.
	activeEpoch uint64
	// activeFilter, when set, transforms every active set installed via
	// SetActive before it takes effect (fault injection masks failed
	// elements this way; see SetActiveFilter).
	activeFilter func(*topology.ActiveSet) *topology.ActiveSet
	// arena interns every installed route's up/down segments; routes maps
	// each flow to its flyweight RouteRef into the arena.
	arena  *topology.SegmentArena
	routes routeTable
	// resolver, when set, supplies a path for a flow the first time
	// traffic references it without an installed route (nil = no route).
	// See SetRouteResolver.
	resolver func(flow.ID) topology.Path
	links    []linkState
	// pq parallels links with the priority-mode queues; nil until the
	// first packet is forwarded under Cfg.PriorityQueueing.
	pq []pqLink
	// dirCap caches each directed link's capacity so the forwarder divides
	// by an array element instead of chasing Graph.Link metadata per hop.
	dirCap []float64
	// flowBytes counts bytes accepted onto each flow's first hop since
	// the last ResetStats — the per-flow counters the SDN controller
	// polls. Packets dropped at hop 0 (inactive ingress or full queue)
	// are offered but never carried and do not count.
	flowBytes map[flow.ID]int64
	// highPrio marks flows served from the high-priority class when
	// Cfg.PriorityQueueing is on.
	highPrio map[flow.ID]bool

	// fluid carries the hybrid fluid/packet background engine state; nil
	// until the first StartBackground under Cfg.FluidBackground.
	fluid *fluidState

	// pkts is the packet arena: fixed pages of pktPageSize packets, with
	// npkts slots handed out so far (slot 0 is reserved for "no packet").
	// pktFree heads the free list, threaded through packet.next. msgs is
	// the message pool, indexed by packet.msg (entry 0 is unused), with
	// msgFree its free indices. Both are bounded by the in-flight
	// high-water mark; in steady state SendMessage allocates nothing but
	// whatever the caller's own callbacks capture. Unlike the packets,
	// messages hold the caller's callbacks, so msgs stays GC-scanned.
	pkts    []*[pktPageSize]packet
	npkts   int32
	pktFree int32
	msgs    []message
	msgFree []int32
	// stepKind and txKind are the network's typed engine events: a
	// packet's arrival at its next hop (arg: packet index) and a link
	// direction's end of transmission in priority mode (arg: direction).
	stepKind sim.Kind
	txKind   sim.Kind

	// Dropped counts packets that hit an inactive element (a transient
	// during reconfiguration; steady-state experiments keep it at zero)
	// or a full queue.
	Dropped int64
	// TailDrops counts only full-queue drops (Config.QueueLimitBytes).
	TailDrops int64
	// OfferedBytes counts every byte handed to the network (message
	// packets and background packets, including ones immediately dropped
	// for want of a route); CarriedBytes counts bytes accepted onto a
	// first hop. Both are cumulative — ResetStats does NOT clear them —
	// so the audit invariant OfferedBytes >= CarriedBytes holds for the
	// whole run: the network can refuse offered traffic but can never
	// carry traffic nobody offered. Fluid-mode background bytes accrue to
	// both (a fluid source is by construction routed and uncongested, so
	// its bytes are always carried).
	OfferedBytes int64
	CarriedBytes int64
	// MsgDropped counts messages lost at the message level: a message is
	// dropped exactly once no matter how many of its packets drop, and a
	// message none of whose packets dropped is the only kind reported
	// delivered (see SendMessage).
	MsgDropped int64
	// FluidDemotions and FluidPromotions count link-direction knee
	// transitions of the fluid background engine (0 unless
	// Cfg.FluidBackground).
	FluidDemotions  int64
	FluidPromotions int64

	// fluidReevals counts fluidReevaluate passes (regression guard: a
	// batched rule or background push must cost one pass, not one per
	// flow).
	fluidReevals int64
}

// New creates a network on g driven by eng, with everything active.
func New(eng *sim.Engine, g *topology.Graph, cfg Config) *Network {
	cfg.fill()
	dirCap := make([]float64, 2*g.NumLinks())
	for _, l := range g.Links() {
		dirCap[2*int(l.ID)] = l.CapacityBps
		dirCap[2*int(l.ID)+1] = l.CapacityBps
	}
	n := &Network{
		Cfg:         cfg,
		eng:         eng,
		g:           g,
		active:      topology.NewActiveSet(g),
		activeEpoch: 1, // segments start at epoch 0 → first touch validates
		arena:       topology.NewSegmentArena(g),
		routes:      routeTable{m: make(map[flow.ID]topology.RouteRef)},
		links:       make([]linkState, 2*g.NumLinks()),
		dirCap:      dirCap,
		flowBytes:   make(map[flow.ID]int64),
		highPrio:    make(map[flow.ID]bool),
		npkts:       1,
	}
	n.stepKind = eng.Handle(n.stepPacket)
	n.txKind = eng.Handle(n.pqTxDone)
	return n
}

// Engine returns the underlying event engine.
func (n *Network) Engine() *sim.Engine { return n.eng }

// Graph returns the topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// SetActive installs the powered subnet. Packets in flight are not
// interrupted; future hops onto inactive elements drop (each preresolved
// route revalidates its hop mask on first use after the epoch bump). When
// an active filter is installed (fault injection), the filter sees the
// requested set and the network runs on whatever the filter returns.
func (n *Network) SetActive(a *topology.ActiveSet) {
	a = a.Clone()
	if n.activeFilter != nil {
		a = n.activeFilter(a)
	}
	n.active = a
	n.activeEpoch++
	if n.fluid != nil && len(n.fluid.srcs) > 0 {
		// Route activity feeds fluid eligibility: a source whose route
		// lost an element must demote to packet mode immediately so its
		// packets hit the dead hop and drop, exactly as in packet mode.
		n.fluidReevaluate()
	}
}

// SetActiveFilter installs (or clears, with nil) a transform applied to
// every subsequently installed active set. The fault injector uses it to
// mask crashed switches and flapped links out of whatever subnet the
// controller requests, without the controller having to know which
// elements are down. The filter receives a private clone and may mutate
// and return it.
func (n *Network) SetActiveFilter(f func(*topology.ActiveSet) *topology.ActiveSet) {
	n.activeFilter = f
}

// Active returns the current powered subnet (shared; do not mutate).
func (n *Network) Active() *topology.ActiveSet { return n.active }

// SetPriority marks a flow as high priority (only meaningful with
// Cfg.PriorityQueueing).
func (n *Network) SetPriority(id flow.ID, hi bool) {
	if hi {
		n.highPrio[id] = true
	} else {
		delete(n.highPrio, id)
	}
}

// routeTable maps flows to their flyweight RouteRefs in two tiers: IDs in
// [0, len(dense)) — the pair space reserved via ReserveRoutes — live in a
// flat 12-byte-per-slot slice (one allocation for a million-pair ECMP
// table, against tens of MB of bucket churn for the equivalent map), and
// everything else falls back to the map. A dense slot with zero hops means
// "no route": Intern never returns a hopless ref for a path of two or more
// nodes, and a single-node route is indistinguishable from no route at
// every consumer (SendMessage drops both).
type routeTable struct {
	dense []topology.RouteRef
	m     map[flow.ID]topology.RouteRef
}

func (t *routeTable) get(id flow.ID) (topology.RouteRef, bool) {
	if id >= 0 && int(id) < len(t.dense) {
		r := t.dense[id]
		return r, r.UpLen|r.DownLen != 0
	}
	r, ok := t.m[id]
	return r, ok
}

func (t *routeTable) set(id flow.ID, r topology.RouteRef) {
	if id >= 0 && int(id) < len(t.dense) {
		t.dense[id] = r
		return
	}
	t.m[id] = r
}

// ReserveRoutes switches the route table's dense tier to cover flow IDs
// [0, pairs): a caller about to install a large pair-keyed route set
// declares its extent once and every route in that space costs 12 bytes
// in a flat slice instead of a map entry. Entries already installed in
// the covered range migrate. The experiment harnesses resolve pair
// routes on demand and never call it; the benchmark harness still does.
func (n *Network) ReserveRoutes(pairs int) {
	if pairs <= len(n.routes.dense) {
		return
	}
	d := make([]topology.RouteRef, pairs)
	copy(d, n.routes.dense)
	n.routes.dense = d
	for id, r := range n.routes.m {
		if id >= 0 && int(id) < pairs {
			d[id] = r
			delete(n.routes.m, id)
		}
	}
}

// SetRoute installs the path for a flow as a flyweight RouteRef: the
// path's up/down segments are interned into the network's segment arena
// (validating adjacency only when a segment is new — installing a route
// whose segments are already interned allocates nothing) and the flow
// maps to the 12-byte ref. The path must be valid; p's backing is not
// retained, so callers may reuse it. In-flight packets of the flow keep
// the ref they launched with.
func (n *Network) SetRoute(id flow.ID, p topology.Path) error {
	ref, err := n.arena.Intern(p)
	if err != nil {
		return fmt.Errorf("netsim: invalid route for flow %d: %v", id, err)
	}
	n.routes.set(id, ref)
	if n.fluid != nil && n.fluid.byFid[id] != nil {
		// A fluid-managed source just got rerouted: its reservation must
		// move (and its eligibility may change) right now.
		n.fluidReevaluate()
	}
	return nil
}

// Route returns a flow's installed path, materialized fresh from the
// arena segments (the inverse of SetRoute's interning). It never
// consults the on-demand resolver: a lazily resolvable but not yet
// referenced flow reports no route.
func (n *Network) Route(id flow.ID) (topology.Path, bool) {
	ref, ok := n.routes.get(id)
	if !ok {
		return nil, false
	}
	return n.arena.MaterializePath(ref), true
}

// RouteOn reports whether flow id has an installed route whose every node
// and link is powered in the current active set: Active().PathOn of the
// path Route would materialize, decided from the route's interned
// segments instead. Hops are checked by the segments' liveness masks,
// revalidated first if the active set has changed since they last
// looked, and the route's source node by the active set.
func (n *Network) RouteOn(id flow.ID) bool {
	rt, ok := n.routes.get(id)
	if !ok || !n.active.NodeOn(n.arena.Head(rt.Up)) {
		return false
	}
	for _, s := range [2]topology.SegID{rt.Up, rt.Down} {
		if n.arena.SegEpoch(s) != n.activeEpoch {
			n.arena.Revalidate(s, n.active, n.activeEpoch)
		}
		if n.arena.SegNumOff(s) != 0 {
			return false
		}
	}
	return true
}

// Arena exposes the network's segment arena (read-mostly; tests and
// stats reporting use it).
func (n *Network) Arena() *topology.SegmentArena { return n.arena }

// InstallRoutes installs every path in the map (the controller's rule
// push). Unlike per-flow SetRoute calls, the push triggers at most ONE
// fluid reevaluation, after all rules are in — reevaluation cost is per
// registered source, so a controller replacing m elephant routes pays one
// pass instead of m.
func (n *Network) InstallRoutes(paths map[flow.ID]topology.Path) error {
	reeval := false
	for id, p := range paths {
		ref, err := n.arena.Intern(p)
		if err != nil {
			return fmt.Errorf("netsim: invalid route for flow %d: %v", id, err)
		}
		n.routes.set(id, ref)
		if n.fluid != nil && n.fluid.byFid[id] != nil {
			reeval = true
		}
	}
	if reeval {
		n.fluidReevaluate()
	}
	return nil
}

// SetRouteResolver installs (or clears, with nil) the on-demand route
// source: when traffic references a flow with no installed route, the
// resolver is consulted once, its non-nil path interned and cached as if
// SetRoute had been called, and a nil return means "no route" (not
// cached — the next reference asks again). This is what lets large
// fabrics skip precomputing the all-pairs route table: only pairs that
// actually exchange traffic ever intern a route. The error result is
// always nil; it is kept for existing callers.
func (n *Network) SetRouteResolver(f func(flow.ID) topology.Path) error {
	n.resolver = f
	return nil
}

// lookupRoute is the traffic-path route lookup: the installed ref, or an
// on-demand resolution when a resolver is set.
func (n *Network) lookupRoute(fid flow.ID) (topology.RouteRef, bool) {
	ref, ok := n.routes.get(fid)
	if ok || n.resolver == nil {
		return ref, ok
	}
	p := n.resolver(fid)
	if p == nil {
		return topology.RouteRef{}, false
	}
	ref, err := n.arena.Intern(p)
	if err != nil {
		return topology.RouteRef{}, false
	}
	n.routes.set(fid, ref)
	return ref, true
}

// segTouch returns the view of the route segment covering hop, lazily
// revalidating its liveness mask when the active set has changed since
// the segment last looked. li is the hop's index within the segment.
func (n *Network) segTouch(rt topology.RouteRef, hop int) (sv topology.SegView, li int) {
	sid, li := rt.SegAt(hop)
	sv = n.arena.Seg(sid)
	if sv.Epoch != n.activeEpoch {
		n.arena.Revalidate(sid, n.active, n.activeEpoch)
		sv = n.arena.Seg(sid)
	}
	return sv, li
}

// message tracks the delivery state of one multi-packet message so that
// drop and delivery semantics are message-level: a message is delivered
// only when every one of its packets arrives, and dropped at most once no
// matter how many of its packets drop. Messages are pooled on the Network
// and named by index: inflight counts packets that have not yet terminated
// (arrived or dropped), and the entry returns to the pool when it reaches
// zero.
type message struct {
	packets     int
	arrived     int
	inflight    int
	dropped     bool
	start       float64
	onDelivered func(latency float64)
	onDropped   func()
}

// acquireMessage pops a pooled message index (or grows the pool). Growing
// may move the pool, so a *message is valid only until the next acquire:
// callers re-fetch it after anything that can send.
func (n *Network) acquireMessage() int32 {
	if k := len(n.msgFree); k > 0 {
		mi := n.msgFree[k-1]
		n.msgFree = n.msgFree[:k-1]
		return mi
	}
	if len(n.msgs) == 0 {
		n.msgs = append(n.msgs, message{}) // index 0 is "no message"
	}
	n.msgs = append(n.msgs, message{})
	return int32(len(n.msgs) - 1)
}

// releaseMessage returns a completed message to the pool, dropping the
// caller callbacks so captured state is released immediately.
func (n *Network) releaseMessage(mi int32) {
	n.msgs[mi] = message{}
	n.msgFree = append(xslice.GrowDoubling(n.msgFree), mi)
}

// pkt resolves a packet index to its arena slot.
func (n *Network) pkt(i int32) *packet { return &n.pkts[i>>pktPageShift][i&pktPageMask] }

// acquirePacket pops a free packet index, or takes the arena's next slot,
// adding a page when the last one is full. Growing to a deep queue's
// high-water mark therefore costs one allocation per page, and a page
// holds no pointers for the collector to scan.
func (n *Network) acquirePacket() int32 {
	if i := n.pktFree; i != 0 {
		pk := n.pkt(i)
		n.pktFree = pk.next
		pk.next = 0
		return i
	}
	i := n.npkts
	if int(i>>pktPageShift) == len(n.pkts) {
		n.pkts = append(n.pkts, new([pktPageSize]packet))
	}
	n.npkts++
	return i
}

// releasePacket returns terminated packet i (at pk) to the free list.
func (n *Network) releasePacket(i int32, pk *packet) {
	pk.msg = 0
	pk.next = n.pktFree
	n.pktFree = i
}

// SendMessage transmits size bytes along the route of fid and calls
// onDelivered with the message's network latency once ALL of its packets
// have arrived. If the flow has no route, or any packet of the message
// hits an inactive element or a full queue, the message is dropped:
// onDropped (if non-nil) is called exactly once per message and
// onDelivered never fires — a message missing a middle packet is lost, not
// delivered. Packet-level drops are counted in Dropped, message-level
// drops in MsgDropped.
func (n *Network) SendMessage(fid flow.ID, size int, onDelivered func(latency float64), onDropped func()) {
	rt, ok := n.lookupRoute(fid)
	if !ok || rt.NumHops() == 0 {
		n.OfferedBytes += int64(size)
		n.Dropped++
		n.MsgDropped++
		if onDropped != nil {
			onDropped()
		}
		return
	}
	packets := (size + n.Cfg.PacketBytes - 1) / n.Cfg.PacketBytes
	if packets == 0 {
		packets = 1
	}
	mi := n.acquireMessage()
	n.msgs[mi] = message{
		packets:     packets,
		inflight:    packets,
		start:       n.eng.Now(),
		onDelivered: onDelivered,
		onDropped:   onDropped,
	}
	// One shared message for every packet of the flight: the message, not
	// the packet index, decides delivery.
	hi := n.highPrio[fid]
	remaining := size
	for i := 0; i < packets; i++ {
		pkt := n.Cfg.PacketBytes
		if remaining < pkt {
			pkt = remaining
		}
		remaining -= pkt
		n.launch(fid, rt, pkt, hi, mi)
	}
}

// launch dispatches one packet onto hop 0 of route rt, as part of message
// mi (0 for a background packet). Hop 0 is processed synchronously
// (enqueue onto the first link happens at the send instant); later hops
// arrive as the network's step events.
func (n *Network) launch(fid flow.ID, rt topology.RouteRef, bytes int, hi bool, mi int32) {
	i := n.acquirePacket()
	pk := n.pkt(i)
	pk.fid = fid
	pk.rt = rt
	pk.bytes = int32(bytes)
	pk.hop = 0
	pk.hi = hi
	pk.msg = mi
	n.stepPacket(i)
}

// finishPacket terminates packet i at pk (arrived at its destination host, or
// dropped en route), returns it to the pool, and applies the message-level
// delivery/drop semantics: delivered only when all packets arrive,
// dropped exactly once no matter how many packets drop. The message is
// re-fetched after each callback, which may send and so grow the pool;
// its own entry cannot be recycled meanwhile, as this packet still counts
// as in flight.
func (n *Network) finishPacket(i int32, pk *packet, delivered bool) {
	mi := pk.msg
	n.releasePacket(i, pk)
	if mi == 0 {
		return // background packet: no message accounting
	}
	m := &n.msgs[mi]
	if delivered {
		if !m.dropped {
			m.arrived++
			if m.arrived == m.packets && m.onDelivered != nil {
				m.onDelivered(n.eng.Now() - m.start)
				m = &n.msgs[mi]
			}
		}
	} else if !m.dropped {
		m.dropped = true
		n.MsgDropped++
		if m.onDropped != nil {
			m.onDropped()
			m = &n.msgs[mi]
		}
	}
	m.inflight--
	if m.inflight == 0 {
		n.releaseMessage(mi)
	}
}

// stepPacket is the single arrival entry point for both queueing modes and
// the handler of the network's step kind: packet i has just reached hop
// pk.hop of its route and either terminates there or is enqueued onto the
// next link. The route is a flyweight ref into the segment arena —
// forwarding is array arithmetic on the shared hop records, with a lazy
// per-segment revalidation when the active set has changed since the
// segment last looked.
func (n *Network) stepPacket(i int32) {
	pk := n.pkt(i)
	if n.Cfg.PriorityQueueing {
		n.stepPQ(i, pk)
		return
	}
	if pk.hop > 0 {
		n.dequeueDeparture(i, pk)
	}
	hop := int(pk.hop)
	if hop == 0 {
		// Offered-byte accounting: every packet presented at its first
		// hop counts, whether or not the network accepts it.
		n.OfferedBytes += int64(pk.bytes)
	}
	if hop >= pk.rt.NumHops() {
		n.finishPacket(i, pk, true)
		return
	}
	sv, li := n.segTouch(pk.rt, hop)
	if sv.Off[li] {
		n.Dropped++
		n.finishPacket(i, pk, false)
		return
	}
	h := &sv.Hops[li]
	ls := &n.links[h.Dir]
	capBps := n.dirCap[h.Dir]
	if ls.fluidBps > 0 {
		// Foreground traffic sees the residual capacity left by the
		// analytic background reservation on this direction.
		capBps -= ls.fluidBps
	}
	now := n.eng.Now()
	startTx := now
	if ls.busyUntil > startTx {
		startTx = ls.busyUntil
	}
	if n.Cfg.QueueLimitBytes > 0 {
		// Backlog in bytes implied by the time the queue needs to drain.
		backlog := (startTx - now) * capBps / 8
		if int(backlog)+int(pk.bytes) > n.Cfg.QueueLimitBytes {
			n.Dropped++
			n.TailDrops++
			n.finishPacket(i, pk, false)
			return
		}
	}
	if hop == 0 {
		// Carried-byte accounting: the flow counter the controller polls
		// counts bytes accepted onto the first hop, not offered bytes — a
		// packet rejected at hop 0 never reaches any switch counter.
		n.flowBytes[pk.fid] += int64(pk.bytes)
		n.CarriedBytes += int64(pk.bytes)
	}
	txTime := float64(pk.bytes) * 8 / capBps
	depart := startTx + txTime
	ls.busyUntil = depart
	ls.bytes += int64(pk.bytes)
	pk.hop = int32(hop + 1)
	n.enqueueDeparture(ls, i, pk, depart+n.Cfg.HopDelay)
}

// enqueueDeparture schedules the arrival of packet i (at pk) at its next hop at time at,
// behind the other packets already in flight from direction ls. It draws
// the event's seq exactly where a plain Schedule would, so the sequence
// stream — and with it every figure — is unchanged. Departures from one
// direction happen in nondecreasing time order (busyUntil only grows and
// every transmission takes positive time), so each direction's queue is
// sorted by (time, seq) and only its head needs a heap entry: merging the
// heads with the rest of the heap yields exactly the single-heap pop
// order, at a heap size bounded by the busy directions rather than by the
// packets queued on them.
func (n *Network) enqueueDeparture(ls *linkState, i int32, pk *packet, at float64) {
	pk.at, pk.seq = at, n.eng.ReserveSeq()
	if ls.qTail == 0 {
		ls.qHead, ls.qTail = i, i
		n.eng.ScheduleKindSeq(at, pk.seq, n.stepKind, i)
		return
	}
	if tail := n.pkt(ls.qTail); at >= tail.at {
		tail.next = i
		ls.qTail = i
		return
	}
	// An out-of-order departure cannot happen with positive transmission
	// times; should one appear, it bypasses the queue and keeps the plain
	// heap order.
	n.eng.ScheduleKindSeq(at, pk.seq, n.stepKind, i)
}

// dequeueDeparture unlinks packet i (at pk), whose step event is firing, from the
// head of the departure queue of the direction it just crossed (its
// route's previous hop) and moves the next packet's event into the heap
// under that packet's original (time, seq). A packet that bypassed the
// queue is not its head: no packet is left linked once it has fired, so a
// pooled packet's earlier flights cannot make it one either.
func (n *Network) dequeueDeparture(i int32, pk *packet) {
	sid, li := pk.rt.SegAt(int(pk.hop) - 1)
	ls := &n.links[n.arena.Seg(sid).Hops[li].Dir]
	if ls.qHead != i {
		return
	}
	ls.qHead = pk.next
	pk.next = 0
	if h := ls.qHead; h != 0 {
		hp := n.pkt(h)
		n.eng.ScheduleKindSeq(hp.at, hp.seq, n.stepKind, h)
	} else {
		ls.qTail = 0
	}
}

// Background is a handle on a running background packet source.
type Background struct {
	stop bool
	n    *Network
	src  *fluidSource
}

// Stop halts the source after its next scheduled packet. A fluid-managed
// source is deregistered immediately: its analytic bytes accrue up to now
// and its link reservations are released. It is the one-element
// StopBackgrounds.
func (b *Background) Stop() {
	b.stop = true
	if b.src != nil {
		b.n.stopFluidSources([]*Background{b})
	}
}

// StopBackgrounds stops every source in bs as one push: under
// Cfg.FluidBackground the fluid-managed ones deregister together and the
// survivors re-settle in a single reevaluation, so a harness stopping m
// elephants pays one pass instead of m. Stops only remove offered load,
// so the result is that of calling Stop on each in order, provided no
// surviving source's rate rose since the last pass (the first per-flow
// stop re-polls them and could demote a direction transiently). When bs
// holds every source, only those transient knee counts could differ.
// Already-stopped entries are ignored.
func (n *Network) StopBackgrounds(bs []*Background) {
	fluid := false
	for _, b := range bs {
		b.stop = true
		fluid = fluid || b.src != nil
	}
	if fluid {
		n.stopFluidSources(bs)
	}
}

// BackgroundSpec describes one background source for StartBackgrounds:
// the flow whose route it follows, its offered-rate callback (bits per
// second) and its private arrival stream.
type BackgroundSpec struct {
	ID     flow.ID
	Rate   func() float64
	Stream *rng.Stream
}

// StartBackground launches a Poisson packet source on the route of fid.
// rate is polled before each packet and returns the current offered load in
// bits per second; returning 0 pauses the source (re-polled every 10ms).
// Packets that find the route inactive are dropped and counted. It is the
// one-element StartBackgrounds.
//
// Under Cfg.FluidBackground the source registers with the hybrid engine
// instead: while its route is fully active and every directed link on it is
// below the knee, the source contributes an analytic rate reservation and
// emits no packet events; otherwise it runs the exact packet loop of
// startPacketBackground.
func (n *Network) StartBackground(fid flow.ID, rate func() float64, stream *rng.Stream) *Background {
	b := &Background{}
	n.startBackgrounds([]*Background{b}, []BackgroundSpec{{ID: fid, Rate: rate, Stream: stream}})
	return b
}

// StartBackgrounds launches one source per spec, in spec order, as one
// push: under Cfg.FluidBackground every source registers before a single
// reevaluation decides their modes, so a harness starting m elephants
// pays one pass instead of m. Registrations only add offered load, so
// the result is that of calling StartBackground on each spec in order,
// provided no already-demoted direction's load fell since the last pass
// (the first per-flow start re-polls it and could promote it
// transiently); a first push, with no sources registered, always
// matches.
func (n *Network) StartBackgrounds(specs []BackgroundSpec) []*Background {
	bs := make([]*Background, len(specs))
	for i := range bs {
		bs[i] = &Background{}
	}
	if len(specs) > 0 {
		n.startBackgrounds(bs, specs)
	}
	return bs
}

func (n *Network) startBackgrounds(bs []*Background, specs []BackgroundSpec) {
	bits := float64(n.Cfg.PacketBytes) * 8
	if n.fluidEnabled() {
		n.startFluidBackgrounds(bs, specs, bits)
		return
	}
	for i, sp := range specs {
		n.startPacketBackground(bs[i], sp.ID, sp.Rate, sp.Stream, bits)
	}
}

// startPacketBackground is the classic sequential background source.
func (n *Network) startPacketBackground(b *Background, fid flow.ID, rate func() float64, stream *rng.Stream, bits float64) {
	// Exactly two closures for the lifetime of the source (arm draws the
	// next arrival, fire emits a packet); every packet reuses them, so the
	// steady-state source allocates nothing.
	var arm, fire func()
	arm = func() {
		if b.stop {
			return
		}
		r := rate()
		if r <= 0 {
			n.eng.After(10e-3, arm)
			return
		}
		n.eng.After(stream.Exp(bits/r), fire)
	}
	fire = func() {
		if b.stop {
			return
		}
		n.launchBackground(fid)
		arm()
	}
	arm()
}

// launchBackground emits one background packet on fid's route, if it has
// one. flowBytes accounting happens at hop-0 acceptance inside the
// forwarders, so dropped-at-ingress packets are not mistaken for carried
// traffic. Background packets carry no message: no delivery accounting.
func (n *Network) launchBackground(fid flow.ID) {
	if rt, ok := n.lookupRoute(fid); ok {
		n.launch(fid, rt, n.Cfg.PacketBytes, n.highPrio[fid], 0)
	}
}

// LinkBytesInto returns forwarded bytes per directed link since the last
// ResetStats in out, keyed by link ID with both directions summed. out is
// cleared and refilled (a nil out allocates one); a periodic poller that
// keeps its map allocates nothing.
func (n *Network) LinkBytesInto(out map[topology.LinkID]int64) map[topology.LinkID]int64 {
	if out == nil {
		out = make(map[topology.LinkID]int64)
	} else {
		clear(out)
	}
	n.fluidAccrueAll()
	for i := range n.links {
		if n.links[i].bytes != 0 {
			out[topology.LinkID(i/2)] += n.links[i].bytes
		}
	}
	return out
}

// LinkUtilizationInto returns per-link utilization over the window seconds
// since the last ResetStats in out, using the busier direction
// (utilization is per-direction in a full-duplex link). out is cleared and
// refilled (a nil out allocates one).
func (n *Network) LinkUtilizationInto(out map[topology.LinkID]float64, window float64) map[topology.LinkID]float64 {
	if out == nil {
		out = make(map[topology.LinkID]float64)
	} else {
		clear(out)
	}
	if window <= 0 {
		return out
	}
	n.fluidAccrueAll()
	for i := range n.links {
		b := n.links[i].bytes
		if b == 0 {
			continue
		}
		lid := topology.LinkID(i / 2)
		u := float64(b) * 8 / window / n.g.Link(lid).CapacityBps
		if u > out[lid] {
			out[lid] = u
		}
	}
	return out
}

// FlowRatesInto returns per-flow offered rates in bits per second over the
// window seconds since the last ResetStats in out. out is cleared and
// refilled (a nil out allocates one); the controller's 2 s stats pull
// keeps one map across epochs.
func (n *Network) FlowRatesInto(out map[flow.ID]float64, window float64) map[flow.ID]float64 {
	if out == nil {
		out = make(map[flow.ID]float64)
	} else {
		clear(out)
	}
	if window <= 0 {
		return out
	}
	n.fluidAccrueAll()
	for id, b := range n.flowBytes {
		out[id] = float64(b) * 8 / window
	}
	return out
}

// ResetStats zeroes the per-link and per-flow byte counters (the
// controller's 2-second stats pull does this after reading). Fluid-mode
// background bytes accrue first, so a read-then-reset cycle never loses
// analytic bytes.
func (n *Network) ResetStats() {
	n.fluidAccrueAll()
	for i := range n.links {
		n.links[i].bytes = 0
	}
	clear(n.flowBytes)
}

// stepPQ is the priority-mode hop forwarder: packets enter a two-class
// queue per link direction; a free link serves the high class first,
// without preempting the packet in service.
func (n *Network) stepPQ(i int32, pk *packet) {
	hop := int(pk.hop)
	if hop == 0 {
		// Mirror the FIFO forwarder's offered-byte accounting.
		n.OfferedBytes += int64(pk.bytes)
	}
	if hop >= pk.rt.NumHops() {
		n.finishPacket(i, pk, true)
		return
	}
	sv, li := n.segTouch(pk.rt, hop)
	if sv.Off[li] {
		n.Dropped++
		n.finishPacket(i, pk, false)
		return
	}
	di := sv.Hops[li].Dir
	if n.pq == nil {
		n.pq = make([]pqLink, len(n.links))
	}
	q := &n.pq[di]
	if hop == 0 {
		// Mirror the FIFO forwarder: flow counters tick at hop-0
		// acceptance.
		n.flowBytes[pk.fid] += int64(pk.bytes)
		n.CarriedBytes += int64(pk.bytes)
	}
	// Carried-byte accounting at enqueue, matching FIFO mode: a packet
	// accepted into a priority queue is committed to this link, and
	// counting it at service time instead would skew the controller's
	// per-window utilization view between the two modes (the QoS
	// ablation compares them).
	n.links[di].bytes += int64(pk.bytes)
	if pk.hi {
		q.hiQ = append(q.hiQ, i)
	} else {
		q.loQ = append(q.loQ, i)
	}
	if !q.busy {
		n.servePQ(di)
	}
}

// servePQ transmits the next queued packet on link direction di. Dequeues
// advance a head cursor and reset it when the queue drains, so the backing
// arrays are reused across the run.
func (n *Network) servePQ(di int) {
	q := &n.pq[di]
	var i int32
	switch {
	case q.hiHead < len(q.hiQ):
		i = q.hiQ[q.hiHead]
		q.hiHead++
		if q.hiHead == len(q.hiQ) {
			q.hiQ = q.hiQ[:0]
			q.hiHead = 0
		}
	case q.loHead < len(q.loQ):
		i = q.loQ[q.loHead]
		q.loHead++
		if q.loHead == len(q.loQ) {
			q.loQ = q.loQ[:0]
			q.loHead = 0
		}
	default:
		q.busy = false
		return
	}
	q.busy = true
	q.inService = i
	tx := float64(n.pkt(i).bytes) * 8 / n.dirCap[di]
	n.eng.AfterKind(tx, n.txKind, int32(di))
}

// pqTxDone is the handler of the network's tx kind. It fires when the
// in-service packet's last bit leaves link direction di: hand the packet
// to the next hop after the fixed hop delay, then serve whatever is queued
// here. (The hop-delay event is scheduled before the next service starts,
// preserving the event order — and thus the bit-exact trajectory — of the
// pre-pool implementation.)
func (n *Network) pqTxDone(di int32) {
	q := &n.pq[di]
	i := q.inService
	q.inService = 0
	n.pkt(i).hop++
	n.eng.AfterKind(n.Cfg.HopDelay, n.stepKind, i)
	n.servePQ(int(di))
}
