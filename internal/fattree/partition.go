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
