// Package topology provides the graph substrate for data-center networks:
// typed nodes (hosts and switch tiers), undirected capacitated links with
// power attributes, active-set (ON/OFF) views used by traffic consolidation,
// and connectivity checks.
package topology

import (
	"fmt"
	"math"
	"slices"
)

// NodeID indexes a node within a Graph.
type NodeID int

// LinkID indexes a link within a Graph.
type LinkID int

// Kind classifies a node.
type Kind int

// Node kinds. The switch tiers follow fat-tree naming but nothing in this
// package assumes a particular topology.
const (
	Host Kind = iota
	EdgeSwitch
	AggSwitch
	CoreSwitch
)

func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case EdgeSwitch:
		return "edge"
	case AggSwitch:
		return "agg"
	case CoreSwitch:
		return "core"
	}
	return "?"
}

// IsSwitch reports whether the kind is one of the switch tiers.
func (k Kind) IsSwitch() bool { return k != Host }

// Node is a vertex in the topology.
type Node struct {
	ID     NodeID
	Name   string
	Kind   Kind
	PowerW float64 // power drawn while the node is active (0 for hosts: server power is accounted separately)
}

// Link is an undirected edge with symmetric per-direction capacity.
type Link struct {
	ID          LinkID
	A, B        NodeID
	CapacityBps float64
	PowerW      float64 // power drawn while the link (both port pairs) is active
}

// Other returns the endpoint of l that is not from.
func (l Link) Other(from NodeID) NodeID {
	if from == l.A {
		return l.B
	}
	return l.A
}

// DirIndex returns a stable per-direction index for a full-duplex link:
// 2*ID for the A→B direction and 2*ID+1 for B→A. Capacity, reservation
// and utilization are all per direction (the antisymmetric flow variables
// of eq. 4 in the paper).
func (l Link) DirIndex(from NodeID) int {
	if from == l.A {
		return 2 * int(l.ID)
	}
	return 2*int(l.ID) + 1
}

// Graph is an undirected multigraph. Nodes and links are append-only; the
// active/inactive state lives in ActiveSet views so that many consolidation
// candidates can share one Graph.
type Graph struct {
	nodes []Node
	links []Link
	adj   [][]LinkID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(name string, kind Kind, powerW float64) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Name: name, Kind: kind, PowerW: powerW})
	g.adj = append(g.adj, nil)
	return id
}

// AddLink appends an undirected link and returns its ID. Duplicate links
// between the same pair are rejected.
func (g *Graph) AddLink(a, b NodeID, capacityBps, powerW float64) (LinkID, error) {
	if a == b {
		return 0, fmt.Errorf("topology: self-loop on node %d", a)
	}
	if _, dup := g.FindLink(a, b); dup {
		return 0, fmt.Errorf("topology: duplicate link %s-%s", g.nodes[a].Name, g.nodes[b].Name)
	}
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, CapacityBps: capacityBps, PowerW: powerW})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return id, nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns node metadata.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns link metadata.
func (g *Graph) Link(id LinkID) Link { return g.links[id] }

// Nodes returns all nodes (shared slice; do not mutate).
func (g *Graph) Nodes() []Node { return g.nodes }

// Links returns all links (shared slice; do not mutate).
func (g *Graph) Links() []Link { return g.links }

// LinksAt returns the IDs of links incident to n (shared slice).
func (g *Graph) LinksAt(n NodeID) []LinkID { return g.adj[n] }

// FindLink returns the link between a and b if one exists. It scans the
// incidence list of the lower-degree endpoint, so a host's access hop
// costs one comparison and a switch-to-switch hop at most one switch's
// port count; out-of-range nodes have no links.
func (g *Graph) FindLink(a, b NodeID) (LinkID, bool) {
	if a < 0 || b < 0 || int(a) >= len(g.adj) || int(b) >= len(g.adj) {
		return 0, false
	}
	if len(g.adj[b]) < len(g.adj[a]) {
		a, b = b, a
	}
	for _, id := range g.adj[a] {
		if g.links[id].Other(a) == b {
			return id, true
		}
	}
	return 0, false
}

// Path is a node sequence from source to destination host. Consecutive
// nodes must be joined by a link in the graph.
type Path []NodeID

// HopDir returns the directed-link index (see Link.DirIndex) of the hop
// from a to b. It panics if a and b are not adjacent, which always
// indicates a routing bug; every path resolver below shares this check.
func (g *Graph) HopDir(a, b NodeID) int {
	id, ok := g.FindLink(a, b)
	if !ok {
		panic(fmt.Sprintf("topology: path hop %s-%s has no link", g.nodes[a].Name, g.nodes[b].Name))
	}
	return g.links[id].DirIndex(a)
}

// DirHead returns the node a directed link (see Link.DirIndex) arrives at:
// B for the A→B direction, A for B→A.
func (g *Graph) DirHead(dir int) NodeID {
	l := g.links[dir/2]
	if dir%2 == 0 {
		return l.B
	}
	return l.A
}

// Links resolves a path to its link IDs. It panics if consecutive nodes are
// not adjacent, which always indicates a routing bug.
func (p Path) Links(g *Graph) []LinkID {
	if len(p) < 2 {
		return nil
	}
	out := make([]LinkID, 0, len(p)-1)
	for i := 0; i+1 < len(p); i++ {
		out = append(out, LinkID(g.HopDir(p[i], p[i+1])/2))
	}
	return out
}

// DirLinksInto resolves the path's directed-link indices into buf's
// backing array (buf may be nil), for callers scanning many candidate
// paths without allocating. Panic behavior matches DirLinks.
func (p Path) DirLinksInto(g *Graph, buf []int) []int {
	buf = buf[:0]
	for i := 0; i+1 < len(p); i++ {
		buf = append(buf, g.HopDir(p[i], p[i+1]))
	}
	return buf
}

// DirLinks resolves a path to directed-link indices (see Link.DirIndex).
func (p Path) DirLinks(g *Graph) []int {
	if len(p) < 2 {
		return nil
	}
	return p.DirLinksInto(g, make([]int, 0, len(p)-1))
}

// DirHop is one preresolved hop of a path: the directed-link index the hop
// transmits on (see Link.DirIndex), the undirected link it belongs to, and
// the node the hop arrives at. Resolving a path to DirHops once at route
// installation lets the packet pipeline step through pure array arithmetic
// instead of a FindLink map lookup per hop per packet.
type DirHop struct {
	Dir  int    // directed-link index (2*Link.ID or 2*Link.ID+1)
	Link LinkID // undirected link the hop rides
	To   NodeID // node the hop arrives at
}

// Valid reports whether every consecutive pair of path nodes is adjacent.
func (p Path) Valid(g *Graph) bool {
	for i := 0; i+1 < len(p); i++ {
		if _, ok := g.FindLink(p[i], p[i+1]); !ok {
			return false
		}
	}
	return len(p) >= 1
}

// ActiveSet records which switches and links are powered on. Hosts are
// always considered on. The zero value is unusable; create with
// NewActiveSet.
type ActiveSet struct {
	g      *Graph
	nodeOn []bool
	linkOn []bool
}

// NewActiveSet returns a view with every node and link powered on.
func NewActiveSet(g *Graph) *ActiveSet {
	a := &ActiveSet{
		g:      g,
		nodeOn: make([]bool, g.NumNodes()),
		linkOn: make([]bool, g.NumLinks()),
	}
	for i := range a.nodeOn {
		a.nodeOn[i] = true
	}
	for i := range a.linkOn {
		a.linkOn[i] = true
	}
	return a
}

// NewEmptyActiveSet returns a view with only hosts on and all switches and
// links off; consolidation builds the active subnet up from it.
func NewEmptyActiveSet(g *Graph) *ActiveSet {
	a := &ActiveSet{
		g:      g,
		nodeOn: make([]bool, g.NumNodes()),
		linkOn: make([]bool, g.NumLinks()),
	}
	for i, n := range g.nodes {
		if n.Kind == Host {
			a.nodeOn[i] = true
		}
	}
	return a
}

// Clone returns a deep copy.
func (a *ActiveSet) Clone() *ActiveSet {
	b := &ActiveSet{g: a.g, nodeOn: make([]bool, len(a.nodeOn)), linkOn: make([]bool, len(a.linkOn))}
	copy(b.nodeOn, a.nodeOn)
	copy(b.linkOn, a.linkOn)
	return b
}

// SetNode powers a node on or off. Hosts cannot be powered off.
func (a *ActiveSet) SetNode(id NodeID, on bool) {
	if a.g.nodes[id].Kind == Host && !on {
		panic("topology: cannot power off a host")
	}
	a.nodeOn[id] = on
}

// SetLink powers a link on or off. Powering a link on also powers both its
// endpoints on (a live link needs live switches, eq. 7 of the paper).
func (a *ActiveSet) SetLink(id LinkID, on bool) {
	a.linkOn[id] = on
	if on {
		l := a.g.links[id]
		if a.g.nodes[l.A].Kind.IsSwitch() {
			a.nodeOn[l.A] = true
		}
		if a.g.nodes[l.B].Kind.IsSwitch() {
			a.nodeOn[l.B] = true
		}
	}
}

// NodeOn reports whether a node is powered.
func (a *ActiveSet) NodeOn(id NodeID) bool { return a.nodeOn[id] }

// LinkOn reports whether a link is powered.
func (a *ActiveSet) LinkOn(id LinkID) bool { return a.linkOn[id] }

// PathOn reports whether every node and link on the path is powered. It is
// allocation-free. The hop loop resolves every hop and keeps scanning past
// an off link, preserving Links' panic on a malformed path regardless of
// where an off link sits.
func (a *ActiveSet) PathOn(p Path) bool {
	for _, n := range p {
		if !a.nodeOn[n] {
			return false
		}
	}
	on := true
	for i := 0; i+1 < len(p); i++ {
		d := a.g.HopDir(p[i], p[i+1])
		on = on && a.linkOn[d/2]
	}
	return on
}

// DirsOn reports whether every directed link in dirs (see Link.DirIndex)
// and both endpoints of each are powered — PathOn for a path already
// resolved to its directed links. Consolidation calls it once per
// candidate path.
func (a *ActiveSet) DirsOn(dirs []int) bool {
	for _, d := range dirs {
		l := &a.g.links[d/2]
		if !a.linkOn[d/2] || !a.nodeOn[l.A] || !a.nodeOn[l.B] {
			return false
		}
	}
	return true
}

// Normalize powers off any switch all of whose links are off, and
// powers off links with a powered-off endpoint — enforcing the consistency
// constraints (7) and (8) of the paper's model. It iterates to a fixed
// point.
func (a *ActiveSet) Normalize() {
	for changed := true; changed; {
		changed = false
		for i, l := range a.g.links {
			if a.linkOn[i] && (!a.nodeOn[l.A] || !a.nodeOn[l.B]) {
				a.linkOn[i] = false
				changed = true
			}
		}
		for i, n := range a.g.nodes {
			if !n.Kind.IsSwitch() || !a.nodeOn[i] {
				continue
			}
			any := false
			for _, lid := range a.g.adj[i] {
				if a.linkOn[lid] {
					any = true
					break
				}
			}
			if !any {
				a.nodeOn[i] = false
				changed = true
			}
		}
	}
}

// ActiveSwitches returns the number of powered switches.
func (a *ActiveSet) ActiveSwitches() int {
	n := 0
	for i, node := range a.g.nodes {
		if node.Kind.IsSwitch() && a.nodeOn[i] {
			n++
		}
	}
	return n
}

// ActiveLinks returns the number of powered links.
func (a *ActiveSet) ActiveLinks() int {
	n := 0
	for _, on := range a.linkOn {
		if on {
			n++
		}
	}
	return n
}

// NetworkPowerW returns the power of all active switches and links — the
// network portion of objective (2).
func (a *ActiveSet) NetworkPowerW() float64 {
	p := 0.0
	for i, n := range a.g.nodes {
		if n.Kind.IsSwitch() && a.nodeOn[i] {
			p += n.PowerW
		}
	}
	for i, l := range a.g.links {
		if a.linkOn[i] {
			p += l.PowerW
		}
	}
	return p
}

// HostsConnected reports whether every pair of hosts can reach each other
// through powered nodes and links.
func (a *ActiveSet) HostsConnected() bool {
	var first NodeID = -1
	hosts := 0
	for i, n := range a.g.nodes {
		if n.Kind == Host {
			hosts++
			if first < 0 {
				first = NodeID(i)
			}
		}
	}
	if hosts <= 1 {
		return true
	}
	seen := make([]bool, a.g.NumNodes())
	queue := []NodeID{first}
	seen[first] = true
	reached := 1
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range a.g.adj[n] {
			if !a.linkOn[lid] {
				continue
			}
			o := a.g.links[lid].Other(n)
			if seen[o] || !a.nodeOn[o] {
				continue
			}
			seen[o] = true
			if a.g.nodes[o].Kind == Host {
				reached++
			}
			queue = append(queue, o)
		}
	}
	return reached == hosts
}

// ShortestActivePath returns a minimum-hop path between two nodes using
// only powered elements, or nil if none exists.
func (a *ActiveSet) ShortestActivePath(src, dst NodeID) Path {
	var f PathFinder
	return f.ShortestActivePath(a, src, dst)
}

// PathFinder is reusable breadth-first-search scratch for
// ShortestActivePath. A caller that searches many paths, such as route
// repair, keeps one and allocates nothing once its buffers have grown to
// the graph. The zero value is ready to use; it is not safe for
// concurrent use.
type PathFinder struct {
	prev  []NodeID
	queue []NodeID
	path  Path
}

// ShortestActivePath is ActiveSet.ShortestActivePath on f's scratch: the
// same path, in a buffer f reuses, so it is valid until f's next search.
// Callers that keep it copy it (netsim.SetRoute does not keep it).
func (f *PathFinder) ShortestActivePath(a *ActiveSet, src, dst NodeID) Path {
	if src == dst {
		f.path = append(f.path[:0], src)
		return f.path
	}
	n := a.g.NumNodes()
	prev := slices.Grow(f.prev[:0], n)[:n]
	for i := range prev {
		prev[i] = -1
	}
	f.prev = prev
	prev[src] = src
	queue := append(f.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, lid := range a.g.adj[n] {
			if !a.linkOn[lid] {
				continue
			}
			o := a.g.links[lid].Other(n)
			if prev[o] != -1 || !a.nodeOn[o] {
				continue
			}
			prev[o] = n
			if o == dst {
				f.queue = queue
				return f.trace(src, dst)
			}
			queue = append(queue, o)
		}
	}
	f.queue = queue
	return nil
}

// trace writes the path the search's prev links give from src to dst,
// front to back, into f.path.
func (f *PathFinder) trace(src, dst NodeID) Path {
	hops := 0
	for cur := dst; cur != src; cur = f.prev[cur] {
		hops++
	}
	p := slices.Grow(f.path[:0], hops+1)[:hops+1]
	for i, cur := hops, dst; i >= 0; i, cur = i-1, f.prev[cur] {
		p[i] = cur
	}
	f.path = p
	return p
}

// MaxPower returns the network power with everything on, useful for
// normalizing savings percentages.
func (g *Graph) MaxPower() float64 {
	p := 0.0
	for _, n := range g.nodes {
		if n.Kind.IsSwitch() {
			p += n.PowerW
		}
	}
	for _, l := range g.links {
		p += l.PowerW
	}
	return p
}

// Validate checks structural invariants: link endpoints in range, positive
// capacities, finite powers.
func (g *Graph) Validate() error {
	for _, l := range g.links {
		if l.A < 0 || int(l.A) >= len(g.nodes) || l.B < 0 || int(l.B) >= len(g.nodes) {
			return fmt.Errorf("topology: link %d endpoint out of range", l.ID)
		}
		if l.CapacityBps <= 0 {
			return fmt.Errorf("topology: link %d capacity %g", l.ID, l.CapacityBps)
		}
		if math.IsNaN(l.PowerW) || math.IsInf(l.PowerW, 0) {
			return fmt.Errorf("topology: link %d power not finite", l.ID)
		}
	}
	for _, n := range g.nodes {
		if math.IsNaN(n.PowerW) || math.IsInf(n.PowerW, 0) {
			return fmt.Errorf("topology: node %q power not finite", n.Name)
		}
	}
	return nil
}
