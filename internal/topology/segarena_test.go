package topology

import (
	"reflect"
	"testing"
)

// miniFabric builds a 2-pod, 1-core fragment: hosts h0,h1 under edge e0
// with aggregation a0, hosts h2,h3 under edge e1 with a1, and core c0
// joining the pods. Small enough to reason about segment identity by
// hand, shaped enough that the apex split exercises every Kind level.
type miniFabric struct {
	g                    *Graph
	h0, h1, h2, h3       NodeID
	e0, e1, a0, a1, c0   NodeID
	le0a0, la1e1, le1h2  LinkID
	p1, p2, p3, intraPod Path
}

func buildMini(t *testing.T) *miniFabric {
	t.Helper()
	f := &miniFabric{g: NewGraph()}
	f.h0 = f.g.AddNode("h0", Host, 0)
	f.h1 = f.g.AddNode("h1", Host, 0)
	f.h2 = f.g.AddNode("h2", Host, 0)
	f.h3 = f.g.AddNode("h3", Host, 0)
	f.e0 = f.g.AddNode("e0", EdgeSwitch, 4)
	f.e1 = f.g.AddNode("e1", EdgeSwitch, 4)
	f.a0 = f.g.AddNode("a0", AggSwitch, 4)
	f.a1 = f.g.AddNode("a1", AggSwitch, 4)
	f.c0 = f.g.AddNode("c0", CoreSwitch, 4)
	mustLink := func(a, b NodeID) LinkID {
		id, err := f.g.AddLink(a, b, 1e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mustLink(f.h0, f.e0)
	mustLink(f.h1, f.e0)
	f.le1h2 = mustLink(f.e1, f.h2)
	mustLink(f.e1, f.h3)
	f.le0a0 = mustLink(f.e0, f.a0)
	f.la1e1 = mustLink(f.a1, f.e1)
	mustLink(f.a0, f.c0)
	mustLink(f.c0, f.a1)
	f.p1 = Path{f.h0, f.e0, f.a0, f.c0, f.a1, f.e1, f.h2}
	f.p2 = Path{f.h1, f.e0, f.a0, f.c0, f.a1, f.e1, f.h3}
	f.p3 = Path{f.h0, f.e0, f.a0, f.c0, f.a1, f.e1, f.h3} // up of p1, down of p2
	f.intraPod = Path{f.h0, f.e0, f.h1}
	return f
}

// TestInternSegmentSharing pins the whole point of the arena: routes that
// agree on one side of the apex share that segment's SegID (and hence its
// hop records and liveness mask), and re-interning an identical path
// returns the identical ref without growing the arena.
func TestInternSegmentSharing(t *testing.T) {
	f := buildMini(t)
	a := NewSegmentArena(f.g)
	r1, err := a.Intern(f.p1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Intern(f.p2)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := a.Intern(f.p3)
	if err != nil {
		t.Fatal(err)
	}
	if r1.UpLen != 3 || r1.DownLen != 3 {
		t.Fatalf("p1 split %d/%d, want 3/3 at the core apex", r1.UpLen, r1.DownLen)
	}
	if r3.Up != r1.Up {
		t.Errorf("p3 and p1 share source and core but not the up-segment: %d vs %d", r3.Up, r1.Up)
	}
	if r3.Down != r2.Down {
		t.Errorf("p3 and p2 share core and destination but not the down-segment: %d vs %d", r3.Down, r2.Down)
	}
	if r1.Up == r2.Up || r1.Down == r2.Down {
		t.Errorf("distinct endpoints interned to the same segment: p1=%+v p2=%+v", r1, r2)
	}
	// 3 routes → 4 distinct segments (2 ups, 2 downs), 12 hop records.
	if a.NumSegments() != 4 {
		t.Errorf("NumSegments = %d, want 4", a.NumSegments())
	}
	if a.NumHops() != 12 {
		t.Errorf("NumHops = %d, want 12", a.NumHops())
	}
	again, err := a.Intern(f.p1)
	if err != nil {
		t.Fatal(err)
	}
	if again != r1 {
		t.Errorf("re-intern of p1 gave %+v, want %+v", again, r1)
	}
	if a.NumSegments() != 4 || a.NumHops() != 12 {
		t.Errorf("re-intern grew the arena to %d segs / %d hops", a.NumSegments(), a.NumHops())
	}
}

// TestInternReuseAllocatesNothing: interning a path whose segments are
// already in the arena is the per-flow steady state at scale, and must
// not allocate.
func TestInternReuseAllocatesNothing(t *testing.T) {
	f := buildMini(t)
	a := NewSegmentArena(f.g)
	if _, err := a.Intern(f.p1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Intern(f.p1); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("re-intern allocates %.1f per run, want 0", allocs)
	}
}

// TestApexSplit checks the split rule on every path shape the fat-tree
// produces: core apex, aggregation apex (same pod, different edges is not
// buildable here, so the intra-edge path stands in for the edge apex),
// and the degenerate single-node path.
func TestApexSplit(t *testing.T) {
	f := buildMini(t)
	a := NewSegmentArena(f.g)
	r, err := a.Intern(f.intraPod) // h0-e0-h1: apex at the edge switch
	if err != nil {
		t.Fatal(err)
	}
	if r.UpLen != 1 || r.DownLen != 1 {
		t.Errorf("intra-edge split %d/%d, want 1/1", r.UpLen, r.DownLen)
	}
	if a.Head(r.Up) != f.h0 || a.Head(r.Down) != f.e0 {
		t.Errorf("segment heads %d/%d, want h0/e0", a.Head(r.Up), a.Head(r.Down))
	}
	single, err := a.Intern(Path{f.h0})
	if err != nil {
		t.Fatal(err)
	}
	if single.NumHops() != 0 {
		t.Errorf("single-node path has %d hops, want 0", single.NumHops())
	}
	if got := a.MaterializePath(single); !reflect.DeepEqual(got, Path{f.h0}) {
		t.Errorf("single-node round-trip = %v", got)
	}
}

// TestMaterializeRoundTrip: MaterializePath must invert Intern exactly,
// and the interned hop records must match the reference FindLink/DirIndex
// resolution hop by hop.
func TestMaterializeRoundTrip(t *testing.T) {
	f := buildMini(t)
	a := NewSegmentArena(f.g)
	for _, p := range []Path{f.p1, f.p2, f.p3, f.intraPod} {
		r, err := a.Intern(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.MaterializePath(r); !reflect.DeepEqual(got, p) {
			t.Errorf("round-trip of %v = %v", p, got)
		}
		for i := 0; i < r.NumHops(); i++ {
			sid, li := r.SegAt(i)
			h := a.Seg(sid).Hops[li]
			lid, ok := f.g.FindLink(p[i], p[i+1])
			if !ok || h.Link != lid || h.To != p[i+1] {
				t.Errorf("path %v hop %d: interned %+v, want link %d to %d", p, i, h, lid, p[i+1])
			}
		}
	}
}

// TestInternRejectsBadPaths: invalid paths must fail atomically — no
// half-appended segment may survive a rejected intern.
func TestInternRejectsBadPaths(t *testing.T) {
	f := buildMini(t)
	a := NewSegmentArena(f.g)
	if _, err := a.Intern(nil); err == nil {
		t.Error("intern of empty path succeeded")
	}
	// h0-e0 is adjacent, but the down side e0-h2 has no link: the valid
	// prefix must not leak into the arena.
	if _, err := a.Intern(Path{f.h0, f.e0, f.h2}); err == nil {
		t.Error("intern across a missing link succeeded")
	}
	if a.NumHops() != 0 && a.NumSegments() > 1 {
		t.Errorf("rejected intern left %d segs / %d hops behind", a.NumSegments(), a.NumHops())
	}
}

// TestRevalidateMasks: the per-segment liveness mask must reproduce the
// per-hop rule (off iff link inactive or arrival node inactive), count
// numOff correctly, stamp the epoch, and be shared between the routes
// that share the segment.
func TestRevalidateMasks(t *testing.T) {
	f := buildMini(t)
	a := NewSegmentArena(f.g)
	r1, _ := a.Intern(f.p1)
	r3, _ := a.Intern(f.p3)
	act := NewActiveSet(f.g)
	act.SetLink(f.le0a0, false) // up-segment hop 1 (e0→a0)
	act.SetNode(f.e1, false)    // down-segment hop 1 arrives at e1
	for s := 0; s < a.NumSegments(); s++ {
		a.Revalidate(SegID(s), act, 7)
	}
	for s := 0; s < a.NumSegments(); s++ {
		if a.SegEpoch(SegID(s)) != 7 {
			t.Errorf("segment %d epoch %d, want 7", s, a.SegEpoch(SegID(s)))
		}
	}
	up := a.Seg(r1.Up)
	if a.SegNumOff(r1.Up) != 1 || !up.Off[1] || up.Off[0] || up.Off[2] {
		t.Errorf("up mask %v numOff %d, want only hop 1 off", up.Off, a.SegNumOff(r1.Up))
	}
	down := a.Seg(r1.Down)
	// a1→e1 arrives at the dead e1; e1→h2 rides a link whose endpoint is
	// dead, which Normalized active sets would also turn off — here only
	// the NodeOn(To) rule applies, so hop 2's liveness follows its link.
	if !down.Off[1] {
		t.Errorf("down mask %v: hop into the dead switch not masked", down.Off)
	}
	// r3 shares r1's up-segment: one revalidation serves both.
	if r3.Up != r1.Up || a.SegEpoch(r3.Up) != 7 {
		t.Error("shared up-segment not revalidated through the other route")
	}
	// Turning everything back on at a later epoch clears the masks.
	all := NewActiveSet(f.g)
	for s := 0; s < a.NumSegments(); s++ {
		a.Revalidate(SegID(s), all, 8)
	}
	for s := 0; s < a.NumSegments(); s++ {
		if a.SegNumOff(SegID(s)) != 0 {
			t.Errorf("segment %d still has %d hops off after full reactivation", s, a.SegNumOff(SegID(s)))
		}
	}
}
