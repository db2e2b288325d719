package topology

import (
	"slices"
	"testing"
	"testing/quick"
)

// diamond builds a 2-host diamond: h0 - s0 - {s1, s2} - s3 - h1.
func diamond(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := NewGraph()
	h0 := g.AddNode("h0", Host, 0)
	s0 := g.AddNode("s0", EdgeSwitch, 36)
	s1 := g.AddNode("s1", AggSwitch, 36)
	s2 := g.AddNode("s2", AggSwitch, 36)
	s3 := g.AddNode("s3", EdgeSwitch, 36)
	h1 := g.AddNode("h1", Host, 0)
	mustLink(t, g, h0, s0)
	mustLink(t, g, s0, s1)
	mustLink(t, g, s0, s2)
	mustLink(t, g, s1, s3)
	mustLink(t, g, s2, s3)
	mustLink(t, g, s3, h1)
	return g, []NodeID{h0, s0, s1, s2, s3, h1}
}

func mustLink(t *testing.T, g *Graph, a, b NodeID) LinkID {
	t.Helper()
	id, err := g.AddLink(a, b, 1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestAddLinkRejectsSelfLoopAndDuplicate(t *testing.T) {
	g := NewGraph()
	a := g.AddNode("a", Host, 0)
	b := g.AddNode("b", EdgeSwitch, 36)
	if _, err := g.AddLink(a, a, 1e9, 0); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddLink(a, b, 1e9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(b, a, 1e9, 0); err == nil {
		t.Fatal("duplicate (reversed) link accepted")
	}
}

func TestFindLinkAndOther(t *testing.T) {
	g, n := diamond(t)
	id, ok := g.FindLink(n[1], n[2])
	if !ok {
		t.Fatal("missing link")
	}
	l := g.Link(id)
	if l.Other(n[1]) != n[2] || l.Other(n[2]) != n[1] {
		t.Fatal("Other endpoints wrong")
	}
	if _, ok := g.FindLink(n[0], n[5]); ok {
		t.Fatal("phantom link")
	}
	if rid, ok := g.FindLink(n[2], n[1]); !ok || rid != id {
		t.Fatalf("reversed lookup = %d,%v, want %d,true", rid, ok, id)
	}
	for _, pair := range [][2]NodeID{{n[1], n[1]}, {-1, n[1]}, {n[1], NodeID(len(n))}, {NodeID(len(n)), -1}} {
		if _, ok := g.FindLink(pair[0], pair[1]); ok {
			t.Fatalf("FindLink%v found a link", pair)
		}
	}
}

func TestPathLinksAndValid(t *testing.T) {
	g, n := diamond(t)
	p := Path{n[0], n[1], n[2], n[4], n[5]}
	if !p.Valid(g) {
		t.Fatal("valid path rejected")
	}
	if len(p.Links(g)) != 4 {
		t.Fatal("wrong link count")
	}
	bad := Path{n[0], n[4]}
	if bad.Valid(g) {
		t.Fatal("invalid path accepted")
	}
}

func TestActiveSetPowerAndCounts(t *testing.T) {
	g, n := diamond(t)
	a := NewActiveSet(g)
	if a.ActiveSwitches() != 4 {
		t.Fatalf("switches %d", a.ActiveSwitches())
	}
	if a.ActiveLinks() != 6 {
		t.Fatalf("links %d", a.ActiveLinks())
	}
	// 4 switches * 36 + 6 links * 1 = 150.
	if got := a.NetworkPowerW(); got != 150 {
		t.Fatalf("power %g", got)
	}
	if g.MaxPower() != 150 {
		t.Fatalf("max power %g", g.MaxPower())
	}
	a.SetNode(n[2], false)
	a.Normalize()
	// s1 off → its two links off: 4 links, 3 switches → 108+4=112.
	if a.ActiveSwitches() != 3 || a.ActiveLinks() != 4 {
		t.Fatalf("after off: %d switches, %d links", a.ActiveSwitches(), a.ActiveLinks())
	}
}

func TestHostCannotBePoweredOff(t *testing.T) {
	g, n := diamond(t)
	a := NewActiveSet(g)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SetNode(n[0], false)
}

func TestConnectivity(t *testing.T) {
	g, n := diamond(t)
	a := NewActiveSet(g)
	if !a.HostsConnected() {
		t.Fatal("full topology must be connected")
	}
	// Turn off one branch: still connected via the other.
	a.SetNode(n[2], false)
	a.Normalize()
	if !a.HostsConnected() {
		t.Fatal("one redundant branch off must stay connected")
	}
	// Turn off both branches: disconnected.
	a.SetNode(n[3], false)
	a.Normalize()
	if a.HostsConnected() {
		t.Fatal("both branches off must disconnect")
	}
}

func TestShortestActivePath(t *testing.T) {
	g, n := diamond(t)
	a := NewActiveSet(g)
	p := a.ShortestActivePath(n[0], n[5])
	if len(p) != 5 {
		t.Fatalf("path length %d, want 5", len(p))
	}
	if !a.PathOn(p) {
		t.Fatal("returned path not active")
	}
	a.SetNode(n[2], false)
	a.SetNode(n[3], false)
	a.Normalize()
	if a.ShortestActivePath(n[0], n[5]) != nil {
		t.Fatal("path through dead subnet returned")
	}
	self := a.ShortestActivePath(n[0], n[0])
	if len(self) != 1 {
		t.Fatal("self path")
	}
}

// TestPathFinderReuse: one PathFinder answers a run of searches exactly as
// a fresh search each time (the diamond's two branches switched on and off
// in turn, a dead subnet, the self path), and once its buffers have grown
// a search allocates nothing.
func TestPathFinderReuse(t *testing.T) {
	g, n := diamond(t)
	var f PathFinder
	for i := 0; i < 8; i++ {
		a := NewActiveSet(g)
		a.SetNode(n[2+i%2], false)
		if i%4 == 3 {
			a.SetNode(n[2], false)
		}
		a.Normalize()
		for _, end := range []NodeID{n[5], n[0], n[4]} {
			want := a.ShortestActivePath(n[0], end)
			got := f.ShortestActivePath(a, n[0], end)
			if !slices.Equal(got, want) || (got == nil) != (want == nil) {
				t.Fatalf("search %d to %d: reused finder gives %v, fresh search %v", i, end, got, want)
			}
		}
	}
	a := NewActiveSet(g)
	if allocs := testing.AllocsPerRun(100, func() { f.ShortestActivePath(a, n[0], n[5]) }); allocs != 0 {
		t.Errorf("warm PathFinder search allocates %.1f, want 0", allocs)
	}
}

func TestEmptyActiveSet(t *testing.T) {
	g, n := diamond(t)
	a := NewEmptyActiveSet(g)
	if a.ActiveSwitches() != 0 || a.ActiveLinks() != 0 {
		t.Fatal("empty set has active elements")
	}
	if !a.NodeOn(n[0]) || !a.NodeOn(n[5]) {
		t.Fatal("hosts must stay on")
	}
	// SetLink powers endpoints on.
	lid, _ := g.FindLink(n[1], n[2])
	a.SetLink(lid, true)
	if !a.NodeOn(n[1]) || !a.NodeOn(n[2]) {
		t.Fatal("link activation must power endpoints")
	}
}

func TestPathOn(t *testing.T) {
	g, n := diamond(t)
	a := NewActiveSet(g)
	p := Path{n[0], n[1], n[2], n[4], n[5]}
	if !a.PathOn(p) {
		t.Fatal("path should be on")
	}
	a.SetNode(n[2], false)
	if a.PathOn(p) {
		t.Fatal("path through off switch reported on")
	}

	// An off link reports false, but a missing hop after it still panics.
	b := NewActiveSet(g)
	lid, _ := g.FindLink(n[1], n[2])
	b.SetLink(lid, false)
	if b.PathOn(p) {
		t.Fatal("path over off link reported on")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("malformed path past an off link did not panic")
		}
	}()
	b.PathOn(Path{n[0], n[1], n[2], n[3]}) // s1-s2 has no link
}

func TestValidate(t *testing.T) {
	g, _ := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: Normalize is idempotent and never increases active counts.
func TestQuickNormalizeIdempotent(t *testing.T) {
	g, nodes := diamond(t)
	f := func(mask uint8) bool {
		a := NewActiveSet(g)
		for i, n := range nodes {
			if g.Node(n).Kind.IsSwitch() && mask&(1<<uint(i)) != 0 {
				a.SetNode(n, false)
			}
		}
		before := a.Clone()
		before.Normalize()
		s1, l1 := before.ActiveSwitches(), before.ActiveLinks()
		before.Normalize()
		if before.ActiveSwitches() != s1 || before.ActiveLinks() != l1 {
			return false
		}
		a.Normalize()
		return a.ActiveSwitches() <= s1+99 // sanity: same object reaches same fixed point
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}
