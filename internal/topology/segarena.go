package topology

import "fmt"

// Flyweight route plane: a flat struct-of-arrays arena of interned route
// *segments*. A route is split at its apex — the first node of the
// highest Kind on the path (Host < EdgeSwitch < AggSwitch < CoreSwitch) —
// into an up-segment (source host up to the apex) and a down-segment
// (apex down to the destination). In a fat-tree the up-segment depends
// only on (source host, core choice) and the down-segment only on (core
// choice, destination host), so per-pair routes share almost all of their
// hop records: a k-ary fabric has k³/4 · (k/2)² distinct segments per
// direction versus (k³/4)² host pairs. Interning each segment once turns
// a route into a 12-byte RouteRef value indexing shared []DirHop backing
// instead of a per-flow heap object.
//
// Liveness lives per segment, not per route: each segment carries an
// epoch-stamped on/off mask over its hops, lazily recomputed against an
// ActiveSet when a consumer observes a stale epoch. Segments are
// append-only and never move, so an in-flight packet's RouteRef stays
// valid forever — replacing a flow's route cannot redirect packets
// already in the fabric, exactly the carry-the-path-by-value semantics
// the mid-flight drop tests pin.
type SegmentArena struct {
	g *Graph
	// hops and off are the shared struct-of-arrays backing: segment s
	// occupies hops[segs[s].start : segs[s].start+segs[s].n], and off
	// holds the per-hop liveness mask at the same indices.
	hops []DirHop
	off  []bool
	segs []segMeta
	// lookup maps a content hash of a segment's node sequence to the
	// segments bearing it (collision chain; equality is verified on the
	// full sequence, so a hit costs zero FindLink probes).
	lookup map[uint64][]SegID
}

// SegID indexes an interned segment within its arena.
type SegID int32

// segMeta locates one segment in the backing arrays and carries its
// liveness state: numOff counts masked-off hops and epoch is the
// ActiveSet generation the mask was computed against (0 = never).
type segMeta struct {
	start  int32
	n      int32
	head   NodeID
	numOff int32
	epoch  uint64
}

// RouteRef is the flyweight route value: two interned segments and their
// hop counts. Hop i of the route is hop i of the up-segment for
// i < UpLen, else hop i−UpLen of the down-segment. The zero value is not
// a valid route; obtain RouteRefs from SegmentArena.Intern.
type RouteRef struct {
	Up, Down       SegID
	UpLen, DownLen uint16
}

// NumHops returns the route's total hop count.
func (r RouteRef) NumHops() int { return int(r.UpLen) + int(r.DownLen) }

// SegAt maps a route hop index to (segment, index within segment).
func (r RouteRef) SegAt(hop int) (SegID, int) {
	if hop < int(r.UpLen) {
		return r.Up, hop
	}
	return r.Down, hop - int(r.UpLen)
}

// NewSegmentArena returns an empty arena over g.
func NewSegmentArena(g *Graph) *SegmentArena {
	return &SegmentArena{g: g, lookup: make(map[uint64][]SegID)}
}

// Reserve presizes the arena for nsegs segments totalling nhops hops, so
// a bulk route installation appends into backing that never reallocates. Overshooting costs only the slack;
// undershooting falls back to append growth. The lookup map is rebuilt
// presized only while still empty — rehashing a populated map would cost
// more than the growth it avoids.
func (a *SegmentArena) Reserve(nsegs, nhops int) {
	if nhops > cap(a.hops) {
		hops := make([]DirHop, len(a.hops), nhops)
		copy(hops, a.hops)
		a.hops = hops
		off := make([]bool, len(a.off), nhops)
		copy(off, a.off)
		a.off = off
	}
	if nsegs > cap(a.segs) {
		segs := make([]segMeta, len(a.segs), nsegs)
		copy(segs, a.segs)
		a.segs = segs
	}
	if len(a.lookup) == 0 && nsegs > 0 {
		a.lookup = make(map[uint64][]SegID, nsegs)
	}
}

// splitApex returns the index of the path's apex: the first occurrence of
// the maximum node Kind. Fat-tree shortest paths ascend to exactly one
// such node and descend after it; for arbitrary valid paths the rule
// still yields a well-formed (possibly lopsided) split.
func (a *SegmentArena) splitApex(p Path) int {
	apex, best := 0, a.g.nodes[p[0]].Kind
	for i := 1; i < len(p); i++ {
		if k := a.g.nodes[p[i]].Kind; k > best {
			apex, best = i, k
		}
	}
	return apex
}

// Intern interns the path's two segments and returns its RouteRef. A
// segment already in the arena costs a hash probe and a node-sequence
// compare — no FindLink calls and no allocation; a new segment is
// validated against the graph (every consecutive pair must be adjacent)
// and appended. The path is copied as needed: the caller may reuse p's
// backing. Paths must have at least one node.
func (a *SegmentArena) Intern(p Path) (RouteRef, error) {
	if len(p) == 0 {
		return RouteRef{}, fmt.Errorf("topology: intern of empty path")
	}
	apex := a.splitApex(p)
	up, err := a.internSeg(p[:apex+1])
	if err != nil {
		return RouteRef{}, err
	}
	down, err := a.internSeg(p[apex:])
	if err != nil {
		return RouteRef{}, err
	}
	return RouteRef{Up: up, Down: down, UpLen: uint16(apex), DownLen: uint16(len(p) - 1 - apex)}, nil
}

// internSeg returns the SegID of the segment with the given node
// sequence, creating it if the arena has not seen it before.
func (a *SegmentArena) internSeg(nodes []NodeID) (SegID, error) {
	if len(nodes)-1 > 1<<16-1 {
		return 0, fmt.Errorf("topology: segment of %d hops exceeds RouteRef range", len(nodes)-1)
	}
	h := hashNodes(nodes)
	for _, sid := range a.lookup[h] {
		if a.segEqual(sid, nodes) {
			return sid, nil
		}
	}
	// New segment: validate fully before touching the backing arrays so a
	// bad path can never leave a half-appended segment behind.
	for i := 0; i+1 < len(nodes); i++ {
		if _, ok := a.g.FindLink(nodes[i], nodes[i+1]); !ok {
			return 0, fmt.Errorf("topology: segment hop %s-%s has no link",
				a.g.nodes[nodes[i]].Name, a.g.nodes[nodes[i+1]].Name)
		}
	}
	start := int32(len(a.hops))
	for i := 0; i+1 < len(nodes); i++ {
		id, _ := a.g.FindLink(nodes[i], nodes[i+1])
		a.hops = append(a.hops, DirHop{Dir: a.g.links[id].DirIndex(nodes[i]), Link: id, To: nodes[i+1]})
		a.off = append(a.off, false)
	}
	sid := SegID(len(a.segs))
	a.segs = append(a.segs, segMeta{start: start, n: int32(len(nodes) - 1), head: nodes[0]})
	a.lookup[h] = append(a.lookup[h], sid)
	return sid, nil
}

// hashNodes is the content hash over a segment's node sequence
// (FNV-style multiply-xor over mixed NodeIDs; collisions are resolved by
// full compare in the lookup chains).
func hashNodes(nodes []NodeID) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range nodes {
		x := uint64(v) * 0x9e3779b97f4a7c15
		x ^= x >> 29
		h = h*1099511628211 ^ x
	}
	return h
}

// segEqual reports whether segment s spells exactly the given node
// sequence.
func (a *SegmentArena) segEqual(s SegID, nodes []NodeID) bool {
	m := &a.segs[s]
	if int(m.n) != len(nodes)-1 || m.head != nodes[0] {
		return false
	}
	hops := a.hops[m.start : m.start+m.n]
	for i := range hops {
		if hops[i].To != nodes[i+1] {
			return false
		}
	}
	return true
}

// SegView is a borrowed view of one segment's share of the backing
// arrays. Hops is immutable; Off is the liveness mask as of Epoch.
type SegView struct {
	Hops  []DirHop
	Off   []bool
	Epoch uint64
}

// Seg returns the view of segment s. The slices alias the arena backing:
// valid until the next Intern appends (re-fetch after interning).
func (a *SegmentArena) Seg(s SegID) SegView {
	m := &a.segs[s]
	return SegView{Hops: a.hops[m.start : m.start+m.n], Off: a.off[m.start : m.start+m.n], Epoch: m.epoch}
}

// Head returns the segment's first node.
func (a *SegmentArena) Head(s SegID) NodeID { return a.segs[s].head }

// SegEpoch returns the ActiveSet generation the segment's liveness mask
// was last computed against (0 = never validated).
func (a *SegmentArena) SegEpoch(s SegID) uint64 { return a.segs[s].epoch }

// SegNumOff returns the number of masked-off hops as of the segment's
// last revalidation.
func (a *SegmentArena) SegNumOff(s SegID) int { return int(a.segs[s].numOff) }

// NumSegments returns the number of interned segments.
func (a *SegmentArena) NumSegments() int { return len(a.segs) }

// NumHops returns the total hop records in the backing array.
func (a *SegmentArena) NumHops() int { return len(a.hops) }

// Revalidate recomputes segment s's liveness mask against active and
// stamps it with epoch: hop i is off iff its link or arrival node is
// inactive — the same rule the per-route masks used.
func (a *SegmentArena) Revalidate(s SegID, active *ActiveSet, epoch uint64) {
	m := &a.segs[s]
	hops := a.hops[m.start : m.start+m.n]
	off := a.off[m.start : m.start+m.n]
	num := int32(0)
	for i := range hops {
		on := active.LinkOn(hops[i].Link) && active.NodeOn(hops[i].To)
		off[i] = !on
		if !on {
			num++
		}
	}
	m.numOff = num
	m.epoch = epoch
}

// MaterializePath rebuilds the node sequence of a route — the inverse of
// Intern, allocating a fresh Path.
func (a *SegmentArena) MaterializePath(r RouteRef) Path {
	out := make(Path, 0, 1+r.NumHops())
	out = append(out, a.segs[r.Up].head)
	for _, h := range a.Seg(r.Up).Hops {
		out = append(out, h.To)
	}
	for _, h := range a.Seg(r.Down).Hops {
		out = append(out, h.To)
	}
	return out
}
