// Package leafspine builds two-tier leaf-spine (folded-Clos) data-center
// topologies. The paper notes its optimization model "is independent of
// the network topology" (§IV-B); this package substantiates that claim:
// leaf-spine implements the same consolidate.Fabric contract as the
// fat-tree, so the greedy, balanced and exact consolidators — and the
// spine-level power policies — work on it unchanged.
package leafspine

import (
	"fmt"

	"eprons/internal/topology"
)

// Config sizes the fabric.
type Config struct {
	// Leaves and Spines count the two switch tiers; every leaf connects
	// to every spine.
	Leaves int
	Spines int
	// HostsPerLeaf hosts hang off each leaf switch.
	HostsPerLeaf int
	// LinkCapacityBps for every link (default 1 Gbps).
	LinkCapacityBps float64
	// SwitchPowerW per switch (default 36 W, matching the paper's model).
	SwitchPowerW float64
	// LinkPowerW per link (default 0).
	LinkPowerW float64
}

// DefaultConfig returns a 4-leaf / 4-spine / 4-hosts-per-leaf fabric with
// the paper's power constants (16 hosts, 8 switches).
func DefaultConfig() Config {
	return Config{Leaves: 4, Spines: 4, HostsPerLeaf: 4, LinkCapacityBps: 1e9, SwitchPowerW: 36}
}

// LeafSpine is a built fabric.
type LeafSpine struct {
	Cfg    Config
	Graph  *topology.Graph
	Hosts  []topology.NodeID
	Leaves []topology.NodeID
	Spines []topology.NodeID

	hostLeaf map[topology.NodeID]int
}

// New builds the fabric.
func New(cfg Config) (*LeafSpine, error) {
	if cfg.Leaves < 1 || cfg.Spines < 1 || cfg.HostsPerLeaf < 1 {
		return nil, fmt.Errorf("leafspine: need at least one leaf, spine and host")
	}
	if cfg.LinkCapacityBps <= 0 {
		return nil, fmt.Errorf("leafspine: link capacity must be positive")
	}
	if cfg.SwitchPowerW < 0 {
		return nil, fmt.Errorf("leafspine: negative switch power")
	}
	g := topology.NewGraph()
	ls := &LeafSpine{Cfg: cfg, Graph: g, hostLeaf: make(map[topology.NodeID]int)}
	for s := 0; s < cfg.Spines; s++ {
		ls.Spines = append(ls.Spines, g.AddNode(fmt.Sprintf("spine_%d", s), topology.CoreSwitch, cfg.SwitchPowerW))
	}
	for l := 0; l < cfg.Leaves; l++ {
		leaf := g.AddNode(fmt.Sprintf("leaf_%d", l), topology.EdgeSwitch, cfg.SwitchPowerW)
		ls.Leaves = append(ls.Leaves, leaf)
		for h := 0; h < cfg.HostsPerLeaf; h++ {
			host := g.AddNode(fmt.Sprintf("host_%d_%d", l, h), topology.Host, 0)
			ls.Hosts = append(ls.Hosts, host)
			ls.hostLeaf[host] = l
			if _, err := g.AddLink(host, leaf, cfg.LinkCapacityBps, cfg.LinkPowerW); err != nil {
				return nil, err
			}
		}
		for _, spine := range ls.Spines {
			if _, err := g.AddLink(leaf, spine, cfg.LinkCapacityBps, cfg.LinkPowerW); err != nil {
				return nil, err
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return ls, nil
}

// Topo implements consolidate.Fabric.
func (ls *LeafSpine) Topo() *topology.Graph { return ls.Graph }

// NumSwitches returns the total switch count.
func (ls *LeafSpine) NumSwitches() int { return len(ls.Leaves) + len(ls.Spines) }

// Paths enumerates the candidate paths between two distinct hosts: one
// path under a shared leaf, otherwise one per spine.
func (ls *LeafSpine) Paths(src, dst topology.NodeID) []topology.Path {
	if src == dst {
		return nil
	}
	sl, dl := ls.hostLeaf[src], ls.hostLeaf[dst]
	if sl == dl {
		return []topology.Path{{src, ls.Leaves[sl], dst}}
	}
	out := make([]topology.Path, 0, len(ls.Spines))
	for _, spine := range ls.Spines {
		out = append(out, topology.Path{src, ls.Leaves[sl], spine, ls.Leaves[dl], dst})
	}
	return out
}

// NumPaths implements consolidate.Fabric: len(Paths(src, dst)).
func (ls *LeafSpine) NumPaths(src, dst topology.NodeID) int {
	return len(ls.Paths(src, dst))
}

// PathDirsInto implements consolidate.Fabric: the directed-link indices of
// the idx'th candidate, built into buf's backing array.
func (ls *LeafSpine) PathDirsInto(src, dst topology.NodeID, idx int, buf []int) []int {
	return ls.Paths(src, dst)[idx].DirLinksInto(ls.Graph, buf)
}

// PathByIndexInto implements consolidate.Fabric: the idx'th candidate,
// copied into buf's backing array.
func (ls *LeafSpine) PathByIndexInto(src, dst topology.NodeID, idx int, buf topology.Path) topology.Path {
	return append(buf[:0], ls.Paths(src, dst)[idx]...)
}

// NumSpinePolicies returns how many consolidation levels exist: level j
// turns off j spines (keeping at least one).
func (ls *LeafSpine) NumSpinePolicies() int { return len(ls.Spines) }

// SpinePolicy is the leaf-spine analogue of the fat-tree aggregation
// policies: level j powers off the last j spine switches. Leaves always
// stay on (hosts attach to them).
func (ls *LeafSpine) SpinePolicy(j int) *topology.ActiveSet {
	if j < 0 {
		j = 0
	}
	if j > len(ls.Spines)-1 {
		j = len(ls.Spines) - 1
	}
	active := topology.NewActiveSet(ls.Graph)
	for i := len(ls.Spines) - j; i < len(ls.Spines); i++ {
		active.SetNode(ls.Spines[i], false)
	}
	active.Normalize()
	return active
}
