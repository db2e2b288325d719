package cluster

// The replicated data tier (Config.Replicas > 0) and the candidate hosts of
// a sub-query.
//
// The broadcast tier sends every query's sub-queries to every other host,
// so any single crashed host loses data outright. On the replicated tier
// the data is P partitions × R replicas placed by internal/placement
// (consistent hashing, pod failure-domain spreading), and a query touches
// ONE replica per partition. Both tiers run the same sub-query lifecycle
// (cluster.go); broadcast is its one-candidate case, where each host but
// the aggregator is its own one-replica partition, so failover, selection
// and suspect marks cannot change the pick. On the replicated tier:
//
//   - Selection is pluggable: SelPrimary always asks the first live
//     replica in placement preference order; SelPowerOfTwo draws two
//     seeded candidates and asks the one with the shorter server queue;
//     SelHedged starts like SelPrimary but duplicates a straggler
//     sub-query onto a second replica once the tracked p95 sub-query RTT
//     elapses — first reply wins, the late duplicate is suppressed and
//     accounted (Dean & Barroso tail-tolerance).
//   - Failover: a sub-query whose attempt is dropped or times out re-sends
//     to the NEXT live replica (never the same host) before spending the
//     query's shared RetryBudget; replicas that dropped traffic are marked
//     suspect and skipped until ReadmitReplicas (wired to fault-repair
//     events by the experiment harnesses) clears the marks.
//
// Accounting: the conservation identity is the same on both tiers
// (submitted = completed + lost + shed + orphans) and hedge duplicates are
// tracked separately with their own identity — after the engine drains,
//
//	Hedges == HedgeWins + HedgeWasted
//
// because every launched hedge terminates exactly once: its request or
// reply is dropped, it is refused at a bounded queue, it is suppressed at
// server completion or reply arrival (stale generation / sub-query already
// resolved), or its reply resolves the sub-query (a win). The audit
// harness asserts both identities.

import (
	"fmt"
	"slices"

	"eprons/internal/placement"
	"eprons/internal/rng"
	"eprons/internal/topology"
)

// SelectionPolicy picks which replica of a partition serves a sub-query.
type SelectionPolicy int

const (
	// SelPrimary asks the first live replica in placement preference order.
	SelPrimary SelectionPolicy = iota
	// SelPowerOfTwo draws two seeded candidates and asks the one with the
	// shorter server queue (ties break to the lower host index).
	SelPowerOfTwo
	// SelHedged asks the primary, then duplicates the sub-query onto the
	// next replica after the tracked p95 sub-query RTT; first reply wins.
	SelHedged
)

// String returns the CLI spelling of the policy.
func (p SelectionPolicy) String() string {
	switch p {
	case SelPrimary:
		return "primary"
	case SelPowerOfTwo:
		return "p2c"
	case SelHedged:
		return "hedged"
	}
	return fmt.Sprintf("selection(%d)", int(p))
}

// ParseSelection parses the CLI spelling of a selection policy.
func ParseSelection(s string) (SelectionPolicy, error) {
	switch s {
	case "primary", "":
		return SelPrimary, nil
	case "p2c", "power-of-two":
		return SelPowerOfTwo, nil
	case "hedged", "hedge":
		return SelHedged, nil
	}
	return SelPrimary, fmt.Errorf("cluster: unknown selection policy %q (want primary, p2c or hedged)", s)
}

// hedgeWarmupSamples is the number of resolved sub-query RTTs required
// before the tracked p95 drives the hedge delay; until then the full
// end-to-end budget is used, which effectively disables hedging during
// warmup rather than hedging on garbage quantiles.
const hedgeWarmupSamples = 20

// initReplication builds the placement when Config.Replicas > 0. Defaults
// Partitions to len(hosts)-1 so a replicated query issues the same number
// of sub-queries as the broadcast tier (1 aggregator + 15 ISNs on the
// default 16-host cell).
func initReplication(c *Cluster) error {
	cfg := &c.Cfg
	if cfg.Replicas == 0 {
		return nil
	}
	if cfg.Partitions <= 0 {
		cfg.Partitions = len(c.hosts) - 1
	}
	pods := cfg.HostPods
	if pods == nil {
		pods = make([]int, len(c.hosts)) // one failure domain: spreading is moot
	}
	if len(pods) != len(c.hosts) {
		return fmt.Errorf("cluster: HostPods length %d != %d hosts", len(pods), len(c.hosts))
	}
	pl, err := placement.New(placement.Config{
		Partitions: cfg.Partitions,
		Replicas:   cfg.Replicas,
		Pods:       pods,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.pl = pl
	c.sel = rng.Derive(cfg.Seed, "replica-select")
	return nil
}

// Placement exposes the replica placement (nil when replication is off).
func (c *Cluster) Placement() *placement.Placement { return c.pl }

// PartitionHosts returns, per partition, the topology NodeIDs of its
// replica hosts — the input the consolidation planner's last-replica guard
// takes. Nil when replication is off.
func (c *Cluster) PartitionHosts() [][]topology.NodeID {
	if c.pl == nil {
		return nil
	}
	out := make([][]topology.NodeID, c.pl.Partitions())
	for p := range out {
		reps := c.pl.Replicas(p)
		nodes := make([]topology.NodeID, len(reps))
		for i, h := range reps {
			nodes[i] = c.hosts[h]
		}
		out[p] = nodes
	}
	return out
}

// ReadmitReplicas clears every replica-suspect mark. The experiment
// harnesses call it from the fault injector's repair events: the
// controller re-admits recovered replicas into selection and failover.
func (c *Cluster) ReadmitReplicas() { clear(c.suspect) }

// partitions returns the number of sub-queries per query.
func (c *Cluster) partitions() int {
	if c.pl == nil {
		return len(c.hosts) - 1
	}
	return c.pl.Partitions()
}

// pick chooses the next attempt's host. On the broadcast tier the only
// candidate of partition p is the p-th host other than the aggregator. A
// replica partition with more than one replica tries untried live
// replicas in preference order first, then untried ones (a suspect beats
// giving up), then any live replica, then the primary; SelPowerOfTwo
// additionally compares the server queues of two seeded draws from the
// candidate tier.
func (c *Cluster) pick(sq *subQuery) int {
	if c.pl == nil {
		if sq.part < sq.aggIdx {
			return sq.part
		}
		return sq.part + 1
	}
	reps := c.pl.Replicas(sq.part)
	if len(reps) == 1 {
		return reps[0]
	}
	cand := c.cand[:0]
	for _, h := range reps {
		if !slices.Contains(sq.tried, h) && !c.suspect[h] {
			cand = append(cand, h)
		}
	}
	if len(cand) == 0 {
		for _, h := range reps {
			if !slices.Contains(sq.tried, h) {
				cand = append(cand, h)
			}
		}
	}
	if len(cand) == 0 {
		for _, h := range reps {
			if !c.suspect[h] {
				cand = append(cand, h)
			}
		}
	}
	if len(cand) == 0 {
		cand = append(cand, reps[0])
	}
	c.cand = cand
	host := cand[0]
	if c.Cfg.Selection == SelPowerOfTwo && len(cand) > 1 {
		i := c.sel.Intn(len(cand))
		j := c.sel.Intn(len(cand) - 1)
		if j >= i {
			j++
		}
		a, b := cand[i], cand[j]
		host = a
		if qa, qb := c.srvs[a].QueueLen(), c.srvs[b].QueueLen(); qb < qa || (qb == qa && b < a) {
			host = b
		}
	}
	sq.tried = append(sq.tried, host)
	return host
}

// hedgeDelay returns the current hedge-trigger delay: the explicit
// override if configured, else the tracked p95 sub-query RTT once warmed,
// else the full end-to-end budget (no premature hedging on cold stats).
func (c *Cluster) hedgeDelay() float64 {
	if c.Cfg.HedgeDelayS > 0 {
		return c.Cfg.HedgeDelayS
	}
	if c.rtt.Count() >= hedgeWarmupSamples {
		return c.rtt.Value()
	}
	return c.Cfg.ServerBudget + c.Cfg.NetworkBudget
}
