package fattree

import "eprons/internal/topology"

// Partition assigns the fat-tree's pods to shards for the sharded
// simulator: shard s owns the hosts, edge and aggregation switches of a
// contiguous block of pods (pod p goes to shard p*shards/k, which balances
// within one pod). Core switches are transit-only and stay unowned; their
// directed links follow topology.NewPartition's arrival rule, so a packet
// crossing the core makes exactly one shard handoff (agg→core stays with
// the source pod, core→agg belongs to the destination pod).
//
// shards is clamped to [1, K]: there are only K pods to distribute.
func (ft *FatTree) Partition(shards int) (*topology.Partition, error) {
	k := ft.Cfg.K
	if shards < 1 {
		shards = 1
	}
	if shards > k {
		shards = k
	}
	half := k / 2
	nodeShard := make([]int32, ft.Graph.NumNodes())
	for i := range nodeShard {
		nodeShard[i] = -1
	}
	hostsPerPod := half * half
	for p := 0; p < k; p++ {
		s := int32(p * shards / k)
		for i := 0; i < half; i++ {
			nodeShard[ft.Edge(p, i)] = s
			nodeShard[ft.Agg(p, i)] = s
		}
		for h := 0; h < hostsPerPod; h++ {
			nodeShard[ft.Hosts[p*hostsPerPod+h]] = s
		}
	}
	return topology.NewPartition(ft.Graph, nodeShard, shards)
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
