// Package placement assigns the search tier's data partitions to hosts:
// P partitions × R replicas placed by consistent hashing over the host set
// with failure-domain (pod) spreading. It is the data-placement layer under
// internal/cluster's replicated fan-out — a query touches one replica per
// partition, so which hosts hold a partition's replicas decides what a
// crashed switch or an over-aggressive consolidation can strand.
//
// Properties the rest of the system relies on:
//
//   - Determinism: the ring is a pure function of (hosts, pods, seed).
//     The same membership always yields the same placement, on every
//     machine, in every run — experiment cells stay bit-reproducible.
//   - Failure-domain spreading: no two replicas of a partition share a pod
//     whenever R ≤ the number of distinct pods in the membership; with
//     fewer pods than replicas the constraint relaxes to distinct hosts.
//   - Consistent rebalancing: removing a host from the membership moves
//     only the replicas that lived on it (plus any spreading repairs);
//     partitions untouched by the membership change keep their hosts.
//     Diff reports exactly what moved.
package placement

import (
	"fmt"
	"sort"
)

// Config parameterizes a placement round.
type Config struct {
	// Partitions is the number of data partitions P (> 0).
	Partitions int
	// Replicas is the replication factor R (> 0). R must not exceed the
	// number of member hosts.
	Replicas int
	// Pods maps host index → failure-domain (pod) index. len(Pods) is the
	// total host population; membership defaults to all of them.
	Pods []int
	// Member, if non-nil, masks the population: Member[i] false removes
	// host i from the ring (len must equal len(Pods)). Nil = all members.
	Member []bool
	// VirtualNodes is the number of ring points per host (default 64; more
	// points = smoother balance, slower construction).
	VirtualNodes int
	// Seed perturbs every ring hash, so independent experiments get
	// independent placements from the same topology.
	Seed int64
}

func (c *Config) fill() error {
	if c.Partitions <= 0 {
		return fmt.Errorf("placement: Partitions must be > 0, got %d", c.Partitions)
	}
	if c.Replicas <= 0 {
		return fmt.Errorf("placement: Replicas must be > 0, got %d", c.Replicas)
	}
	if len(c.Pods) == 0 {
		return fmt.Errorf("placement: empty host set")
	}
	if c.Member != nil && len(c.Member) != len(c.Pods) {
		return fmt.Errorf("placement: Member mask length %d != %d hosts", len(c.Member), len(c.Pods))
	}
	if c.VirtualNodes <= 0 {
		c.VirtualNodes = 64
	}
	return nil
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	host int32
}

// Placement is an immutable partition→replica-host assignment.
type Placement struct {
	Cfg Config
	// replicas[p] lists partition p's replica host indices in ring
	// (preference) order: replicas[p][0] is the primary.
	replicas [][]int
	pods     int
}

// splitmix64 is the ring hash: a full-avalanche mixer over a 64-bit state,
// deterministic across platforms (no map iteration, no runtime hash seed).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashHostVNode places host h's v-th virtual node on the ring.
func hashHostVNode(seed int64, h, v int) uint64 {
	return splitmix64(uint64(seed)*0x100000001b3 ^ uint64(h)<<20 ^ uint64(v))
}

// hashPartition locates partition p's anchor on the ring.
func hashPartition(seed int64, p int) uint64 {
	return splitmix64(uint64(seed)*0xcbf29ce484222325 ^ 0xabcd<<32 ^ uint64(p))
}

// New builds the placement: a consistent-hash ring of every member host's
// virtual nodes, then for each partition a clockwise walk from the
// partition's anchor collecting R distinct hosts, skipping hosts whose pod
// is already represented while distinct pods remain available.
func New(cfg Config) (*Placement, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	memberOf := func(i int) bool { return cfg.Member == nil || cfg.Member[i] }

	members := 0
	podSeen := map[int]bool{}
	for i := range cfg.Pods {
		if !memberOf(i) {
			continue
		}
		members++
		podSeen[cfg.Pods[i]] = true
	}
	if members == 0 {
		return nil, fmt.Errorf("placement: no member hosts")
	}
	if cfg.Replicas > members {
		return nil, fmt.Errorf("placement: R=%d exceeds %d member hosts", cfg.Replicas, members)
	}

	ring := make([]ringPoint, 0, members*cfg.VirtualNodes)
	for i := range cfg.Pods {
		if !memberOf(i) {
			continue
		}
		for v := 0; v < cfg.VirtualNodes; v++ {
			ring = append(ring, ringPoint{hash: hashHostVNode(cfg.Seed, i, v), host: int32(i)})
		}
	}
	// Deterministic ring order: by hash, ties (vanishingly rare) by host.
	sort.Slice(ring, func(a, b int) bool {
		if ring[a].hash != ring[b].hash {
			return ring[a].hash < ring[b].hash
		}
		return ring[a].host < ring[b].host
	})

	pl := &Placement{Cfg: cfg, replicas: make([][]int, cfg.Partitions), pods: len(podSeen)}
	spreadPods := cfg.Replicas <= len(podSeen)
	usedHost := make(map[int]bool, cfg.Replicas)
	usedPod := make(map[int]bool, cfg.Replicas)
	for p := 0; p < cfg.Partitions; p++ {
		anchor := hashPartition(cfg.Seed, p)
		start := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= anchor })
		reps := make([]int, 0, cfg.Replicas)
		for k := range usedHost {
			delete(usedHost, k)
		}
		for k := range usedPod {
			delete(usedPod, k)
		}
		// First pass honors the pod constraint; if the walk wraps without
		// filling (same-pod virtual nodes crowding the arc), a second pass
		// relaxes to distinct hosts only.
		for pass := 0; pass < 2 && len(reps) < cfg.Replicas; pass++ {
			requireNewPod := spreadPods && pass == 0
			for step := 0; step < len(ring) && len(reps) < cfg.Replicas; step++ {
				pt := ring[(start+step)%len(ring)]
				h := int(pt.host)
				if usedHost[h] {
					continue
				}
				if requireNewPod && usedPod[cfg.Pods[h]] {
					continue
				}
				usedHost[h] = true
				usedPod[cfg.Pods[h]] = true
				reps = append(reps, h)
			}
		}
		pl.replicas[p] = reps
	}
	return pl, nil
}

// Partitions returns P.
func (pl *Placement) Partitions() int { return pl.Cfg.Partitions }

// Replicas returns partition p's replica host indices in preference order
// (index 0 is the primary). The slice is owned by the placement — callers
// must not mutate it.
func (pl *Placement) Replicas(p int) []int { return pl.replicas[p] }

// HostPartitions returns the partitions that keep a replica on host h
// (ascending partition order).
func (pl *Placement) HostPartitions(h int) []int {
	var out []int
	for p, reps := range pl.replicas {
		for _, r := range reps {
			if r == h {
				out = append(out, p)
				break
			}
		}
	}
	return out
}

// Move records one replica relocation between two placements.
type Move struct {
	Partition int
	From      int // host index in the old placement, -1 if newly added
	To        int // host index in the new placement, -1 if dropped
}

// Diff computes the rebalance between two placements over the same host
// population: for each partition, replicas present in old but not new pair
// up (in preference order) with replicas present in new but not old.
// Unpaired removals report To: -1; unpaired additions report From: -1.
// Partitions whose replica sets are unchanged contribute nothing — the
// consistency guarantee a membership change is judged by.
func Diff(old, new_ *Placement) ([]Move, error) {
	if old.Cfg.Partitions != new_.Cfg.Partitions {
		return nil, fmt.Errorf("placement: diff across partition counts %d vs %d",
			old.Cfg.Partitions, new_.Cfg.Partitions)
	}
	var moves []Move
	for p := 0; p < old.Cfg.Partitions; p++ {
		oldSet := map[int]bool{}
		for _, h := range old.replicas[p] {
			oldSet[h] = true
		}
		newSet := map[int]bool{}
		for _, h := range new_.replicas[p] {
			newSet[h] = true
		}
		var removed, added []int
		for _, h := range old.replicas[p] {
			if !newSet[h] {
				removed = append(removed, h)
			}
		}
		for _, h := range new_.replicas[p] {
			if !oldSet[h] {
				added = append(added, h)
			}
		}
		n := len(removed)
		if len(added) > n {
			n = len(added)
		}
		for i := 0; i < n; i++ {
			m := Move{Partition: p, From: -1, To: -1}
			if i < len(removed) {
				m.From = removed[i]
			}
			if i < len(added) {
				m.To = added[i]
			}
			moves = append(moves, m)
		}
	}
	return moves, nil
}

// Validate re-checks the structural invariants (each partition has exactly
// R distinct member replicas; pods distinct when R ≤ pods). New always
// produces valid placements; Validate exists for audits and fuzzing.
func (pl *Placement) Validate() error {
	spread := pl.Cfg.Replicas <= pl.pods
	for p, reps := range pl.replicas {
		if len(reps) != pl.Cfg.Replicas {
			return fmt.Errorf("placement: partition %d has %d replicas, want %d", p, len(reps), pl.Cfg.Replicas)
		}
		hosts := map[int]bool{}
		pods := map[int]bool{}
		for _, h := range reps {
			if h < 0 || h >= len(pl.Cfg.Pods) {
				return fmt.Errorf("placement: partition %d replica host %d out of range", p, h)
			}
			if pl.Cfg.Member != nil && !pl.Cfg.Member[h] {
				return fmt.Errorf("placement: partition %d replica on non-member host %d", p, h)
			}
			if hosts[h] {
				return fmt.Errorf("placement: partition %d repeats host %d", p, h)
			}
			hosts[h] = true
			pods[pl.Cfg.Pods[h]] = true
		}
		if spread && len(pods) != len(reps) {
			return fmt.Errorf("placement: partition %d spans %d pods for %d replicas (R <= %d pods requires distinct pods)",
				p, len(pods), len(reps), pl.pods)
		}
	}
	return nil
}
