// Package fattree builds k-ary fat-tree data-center topologies and
// implements the structural operations the paper relies on: equal-cost path
// enumeration between hosts and the Aggregation 0–3 consolidation policies
// of Fig 9.
//
// A k-ary fat-tree has k pods, each with k/2 edge and k/2 aggregation
// switches, (k/2)² core switches, and k/2 hosts per edge switch — so k³/4
// hosts in total. The paper evaluates k=4: 16 hosts, 8 edge, 8 aggregation
// and 4 core switches with 1 Gbps links.
package fattree

import (
	"fmt"

	"eprons/internal/flow"
	"eprons/internal/topology"
)

// Config selects the fat-tree size and element power/capacity parameters.
type Config struct {
	// K is the fat-tree arity; it must be even and >= 2.
	K int
	// LinkCapacityBps is the capacity of every link (paper: 1 Gbps).
	LinkCapacityBps float64
	// SwitchPowerW is the active power of every switch (paper: 36 W, from
	// the 4-port switch measurement of [23]).
	SwitchPowerW float64
	// LinkPowerW is the active power of every link. The paper's
	// evaluation folds line-card power into the switch figure, so the
	// default is 0, but the optimization model supports a non-zero value.
	LinkPowerW float64
}

// DefaultConfig returns the paper's evaluation parameters (k=4, 1 Gbps,
// 36 W switches).
func DefaultConfig() Config {
	return Config{K: 4, LinkCapacityBps: 1e9, SwitchPowerW: 36, LinkPowerW: 0}
}

// FatTree is a built topology with index structures for path enumeration.
type FatTree struct {
	Cfg   Config
	Graph *topology.Graph

	Hosts []topology.NodeID
	Edges []topology.NodeID // pod-major: Edges[p*(k/2)+e]
	Aggs  []topology.NodeID // pod-major: Aggs[p*(k/2)+a]
	Cores []topology.NodeID // Cores[g*(k/2)+i]: group g connects to agg index g in every pod

	// hostPod and hostEdge hold each host's pod and edge index within the
	// pod, and hostLink the ID of its access link, all indexed by NodeID
	// (switch entries stay 0). ECMP path probes read them for both
	// endpoints on every candidate.
	hostPod  []int32
	hostEdge []int32
	hostLink []int32
}

// New builds a fat-tree from cfg.
func New(cfg Config) (*FatTree, error) {
	if cfg.K < 2 || cfg.K%2 != 0 {
		return nil, fmt.Errorf("fattree: K must be even and >= 2, got %d", cfg.K)
	}
	if cfg.LinkCapacityBps <= 0 {
		return nil, fmt.Errorf("fattree: link capacity must be positive")
	}
	k := cfg.K
	half := k / 2
	g := topology.NewGraph()
	nodes := k*k*k/4 + k*k + k*k/4 // hosts + edge/agg switches + cores
	ft := &FatTree{
		Cfg:      cfg,
		Graph:    g,
		hostPod:  make([]int32, nodes),
		hostEdge: make([]int32, nodes),
		hostLink: make([]int32, nodes),
	}

	// Core switches: (k/2)² of them, in k/2 groups of k/2. Core
	// (g, i) connects to aggregation switch index g in every pod.
	for grp := 0; grp < half; grp++ {
		for i := 0; i < half; i++ {
			id := g.AddNode(fmt.Sprintf("core_%d_%d", grp, i), topology.CoreSwitch, cfg.SwitchPowerW)
			ft.Cores = append(ft.Cores, id)
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			id := g.AddNode(fmt.Sprintf("agg_%d_%d", p, a), topology.AggSwitch, cfg.SwitchPowerW)
			ft.Aggs = append(ft.Aggs, id)
		}
		for e := 0; e < half; e++ {
			id := g.AddNode(fmt.Sprintf("edge_%d_%d", p, e), topology.EdgeSwitch, cfg.SwitchPowerW)
			ft.Edges = append(ft.Edges, id)
			for h := 0; h < half; h++ {
				hid := g.AddNode(fmt.Sprintf("host_%d_%d_%d", p, e, h), topology.Host, 0)
				ft.Hosts = append(ft.Hosts, hid)
				ft.hostPod[hid] = int32(p)
				ft.hostEdge[hid] = int32(e)
				lid, err := g.AddLink(hid, id, cfg.LinkCapacityBps, cfg.LinkPowerW)
				if err != nil {
					return nil, err
				}
				ft.hostLink[hid] = int32(lid)
			}
		}
	}
	// Edge <-> Agg links within each pod (full bipartite). PathDirsInto
	// derives link IDs from this order and the agg <-> core order below.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if _, err := g.AddLink(ft.Edge(p, e), ft.Agg(p, a), cfg.LinkCapacityBps, cfg.LinkPowerW); err != nil {
					return nil, err
				}
			}
		}
	}
	// Agg <-> Core links: agg (p, a) connects to all cores in group a.
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for i := 0; i < half; i++ {
				if _, err := g.AddLink(ft.Agg(p, a), ft.Core(a, i), cfg.LinkCapacityBps, cfg.LinkPowerW); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return ft, nil
}

// Topo returns the underlying graph (the consolidate.Fabric accessor).
func (ft *FatTree) Topo() *topology.Graph { return ft.Graph }

// LinkCapacityBps returns the uniform link capacity.
func (ft *FatTree) LinkCapacityBps() float64 { return ft.Cfg.LinkCapacityBps }

// Edge returns the edge switch at (pod, index).
func (ft *FatTree) Edge(pod, idx int) topology.NodeID {
	return ft.Edges[pod*(ft.Cfg.K/2)+idx]
}

// Agg returns the aggregation switch at (pod, index).
func (ft *FatTree) Agg(pod, idx int) topology.NodeID {
	return ft.Aggs[pod*(ft.Cfg.K/2)+idx]
}

// Core returns the core switch at (group, index).
func (ft *FatTree) Core(group, idx int) topology.NodeID {
	return ft.Cores[group*(ft.Cfg.K/2)+idx]
}

// HostPod returns the pod of a host.
func (ft *FatTree) HostPod(h topology.NodeID) int { return int(ft.hostPod[h]) }

// PodPairElephants returns one background elephant per ordered pod pair,
// source-pod-major, with consecutive IDs from first and demandBps each.
// Pod sp's elephant to pod dp runs from host dp of pod sp to host sp of
// pod dp (indices mod hosts per pod), so each source host sends at most
// one elephant and access links are not the bottleneck.
func (ft *FatTree) PodPairElephants(first flow.ID, demandBps float64) []flow.Flow {
	k := ft.Cfg.K
	perPod := len(ft.Hosts) / k
	out := make([]flow.Flow, 0, k*(k-1))
	for sp := 0; sp < k; sp++ {
		for dp := 0; dp < k; dp++ {
			if sp == dp {
				continue
			}
			out = append(out, flow.Flow{
				ID:        first + flow.ID(len(out)),
				Src:       ft.Hosts[sp*perPod+dp%perPod],
				Dst:       ft.Hosts[dp*perPod+sp%perPod],
				DemandBps: demandBps,
				Class:     flow.Background,
			})
		}
	}
	return out
}

// NumSwitches returns the total switch count.
func (ft *FatTree) NumSwitches() int {
	return len(ft.Edges) + len(ft.Aggs) + len(ft.Cores)
}

// Paths enumerates every equal-cost shortest path between two distinct
// hosts:
//
//   - same edge switch: 1 two-hop path
//   - same pod, different edge: k/2 paths (one per aggregation switch)
//   - different pods: (k/2)² paths (one per core switch)
func (ft *FatTree) Paths(src, dst topology.NodeID) []topology.Path {
	if src == dst {
		return nil
	}
	half := ft.Cfg.K / 2
	sp, se := int(ft.hostPod[src]), int(ft.hostEdge[src])
	dp, de := int(ft.hostPod[dst]), int(ft.hostEdge[dst])
	if sp == dp && se == de {
		return []topology.Path{{src, ft.Edge(sp, se), dst}}
	}
	// One flat backing array for all candidates (two allocations per call
	// instead of one per path — consolidation enumerates candidates for
	// every flow, and per-path slice headers dominated its allocation
	// profile). Three-index slicing caps each path at its own segment.
	if sp == dp {
		backing := make([]topology.NodeID, 0, half*5)
		out := make([]topology.Path, 0, half)
		for a := 0; a < half; a++ {
			start := len(backing)
			backing = append(backing, src, ft.Edge(sp, se), ft.Agg(sp, a), ft.Edge(dp, de), dst)
			out = append(out, topology.Path(backing[start:len(backing):len(backing)]))
		}
		return out
	}
	backing := make([]topology.NodeID, 0, half*half*7)
	out := make([]topology.Path, 0, half*half)
	for grp := 0; grp < half; grp++ {
		for i := 0; i < half; i++ {
			start := len(backing)
			backing = append(backing,
				src,
				ft.Edge(sp, se),
				ft.Agg(sp, grp),
				ft.Core(grp, i),
				ft.Agg(dp, grp),
				ft.Edge(dp, de),
				dst,
			)
			out = append(out, topology.Path(backing[start:len(backing):len(backing)]))
		}
	}
	return out
}

// NumPaths returns how many equal-cost shortest paths Paths(src, dst) would
// enumerate, without building them.
func (ft *FatTree) NumPaths(src, dst topology.NodeID) int {
	if src == dst {
		return 0
	}
	half := ft.Cfg.K / 2
	sp, se := ft.hostPod[src], ft.hostEdge[src]
	dp, de := ft.hostPod[dst], ft.hostEdge[dst]
	switch {
	case sp == dp && se == de:
		return 1
	case sp == dp:
		return half
	default:
		return half * half
	}
}

// PathByIndex builds the idx'th path of the canonical Paths(src, dst)
// enumeration directly, without materializing the other candidates — the
// ECMP fast path for large fabrics, where enumerating (k/2)² paths per
// host pair is prohibitive. idx must be in [0, NumPaths(src, dst)).
func (ft *FatTree) PathByIndex(src, dst topology.NodeID, idx int) topology.Path {
	return ft.PathByIndexInto(src, dst, idx, nil)
}

// PathByIndexInto is the scratch-reuse variant of PathByIndex: the path
// is built into buf's backing array (buf may be nil), so callers probing
// many candidates — the ECMP route construction probes per ordered host
// pair — allocate nothing once the scratch has grown to path length.
func (ft *FatTree) PathByIndexInto(src, dst topology.NodeID, idx int, buf topology.Path) topology.Path {
	half := ft.Cfg.K / 2
	sp, se := int(ft.hostPod[src]), int(ft.hostEdge[src])
	dp, de := int(ft.hostPod[dst]), int(ft.hostEdge[dst])
	buf = buf[:0]
	if sp == dp && se == de {
		return append(buf, src, ft.Edge(sp, se), dst)
	}
	if sp == dp {
		return append(buf, src, ft.Edge(sp, se), ft.Agg(sp, idx), ft.Edge(dp, de), dst)
	}
	grp, i := idx/half, idx%half
	return append(buf,
		src,
		ft.Edge(sp, se),
		ft.Agg(sp, grp),
		ft.Core(grp, i),
		ft.Agg(dp, grp),
		ft.Edge(dp, de),
		dst,
	)
}

// PathDirsInto returns the directed-link indices (topology.Link.DirIndex)
// of PathByIndex(src, dst, idx), built into buf's backing array (buf may
// be nil). It computes them from New's link order — host links, then
// edge→agg by (pod, edge, agg), then agg→core by (pod, agg, core) — with
// every link stored upward (A is the lower tier), so an upward hop is
// 2*ID and a downward hop 2*ID+1. Consolidation scores every candidate
// this way without building its node path or resolving any hop.
func (ft *FatTree) PathDirsInto(src, dst topology.NodeID, idx int, buf []int) []int {
	half := ft.Cfg.K / 2
	hosts := len(ft.Hosts)
	sp, se := int(ft.hostPod[src]), int(ft.hostEdge[src])
	dp, de := int(ft.hostPod[dst]), int(ft.hostEdge[dst])
	up := 2 * int(ft.hostLink[src])
	down := 2*int(ft.hostLink[dst]) + 1
	// edgeAgg and aggCore are the link IDs of the two switch tiers.
	edgeAgg := func(p, e, a int) int { return hosts + (p*half+e)*half + a }
	aggCore := func(p, a, i int) int { return hosts + ft.Cfg.K*half*half + (p*half+a)*half + i }
	buf = buf[:0]
	if sp == dp && se == de {
		return append(buf, up, down)
	}
	if sp == dp {
		return append(buf, up, 2*edgeAgg(sp, se, idx), 2*edgeAgg(dp, de, idx)+1, down)
	}
	grp, i := idx/half, idx%half
	return append(buf,
		up,
		2*edgeAgg(sp, se, grp),
		2*aggCore(sp, grp, i),
		2*aggCore(dp, grp, i)+1,
		2*edgeAgg(dp, de, grp)+1,
		down,
	)
}

// NumAggregationPolicies returns how many Fig 9 consolidation levels exist:
// the number of core switches (turning them off one at a time), i.e.
// (k/2)² levels counting Aggregation 0 (everything on) through
// Aggregation (cores-1).
func (ft *FatTree) NumAggregationPolicies() int { return len(ft.Cores) }

// AggregationPolicy returns the Fig 9 active set for level j:
// Aggregation j keeps the first len(Cores)-j core switches on; an
// aggregation switch stays on iff its core group still has an active core;
// edge switches and host links are always on. Level 0 is the full topology.
// The scheme is documented in DESIGN.md (the paper's figure is not
// machine-readable); it reproduces the monotone power/latency trade-off of
// Figs 9–10.
func (ft *FatTree) AggregationPolicy(j int) *topology.ActiveSet {
	if j < 0 {
		j = 0
	}
	maxJ := len(ft.Cores) - 1
	if j > maxJ {
		j = maxJ
	}
	half := ft.Cfg.K / 2
	active := topology.NewActiveSet(ft.Graph)
	keep := len(ft.Cores) - j
	groupAlive := make([]bool, half)
	for c := 0; c < len(ft.Cores); c++ {
		if c < keep {
			groupAlive[c/half] = true
		} else {
			active.SetNode(ft.Cores[c], false)
		}
	}
	for p := 0; p < ft.Cfg.K; p++ {
		for a := 0; a < half; a++ {
			if !groupAlive[a] {
				active.SetNode(ft.Agg(p, a), false)
			}
		}
	}
	active.Normalize()
	return active
}
