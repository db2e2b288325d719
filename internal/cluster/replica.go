package cluster

// Replicated per-partition fan-out (Config.Replicas > 0).
//
// The legacy broadcast cluster sends every query's sub-queries to every
// other host, so any single crashed host loses data outright. In
// replicated mode the data tier is P partitions × R replicas placed by
// internal/placement (consistent hashing, pod failure-domain spreading),
// and a query touches ONE replica per partition:
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
// Accounting: the conservation identity is unchanged (submitted =
// completed + lost + shed + orphans) and hedge duplicates are tracked
// separately with their own identity — after the engine drains,
//
//	Hedges == HedgeWins + HedgeWasted
//
// because every launched hedge terminates exactly once: its request or
// reply is dropped, it is suppressed at server completion or reply arrival
// (stale generation / sub-query already resolved), or its reply resolves
// the sub-query (a win). The audit harness asserts both identities.
//
// The replicated path is a separate code path: with Replicas == 0 none of
// it runs, no replica state is allocated, and the legacy broadcast fan-out
// is bit-identical to previous releases (the figure contract).

import (
	"fmt"

	"eprons/internal/metrics"
	"eprons/internal/placement"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
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

// replicaState is the cluster's replicated-mode state; nil when
// Config.Replicas == 0, which keeps the broadcast path untouched.
type replicaState struct {
	pl  *placement.Placement
	sel *rng.Stream // power-of-two candidate draws
	// suspect marks hosts believed down (their attempts dropped or timed
	// out); selection and failover skip them until ReadmitReplicas.
	suspect []bool
	// rtt tracks the p95 of resolved sub-query round-trip times, the
	// hedge-trigger delay once warmed up.
	rtt metrics.RunningQuantile
	// cand is the reused candidate scratch buffer of pickReplica.
	cand []int
}

// initReplication builds the placement and replica state when
// Config.Replicas > 0. Defaults Partitions to len(hosts)-1 so a replicated
// query issues the same number of sub-queries as the legacy broadcast
// (1 aggregator + 15 ISNs on the default 16-host cell).
func initReplication(c *Cluster) error {
	cfg := &c.Cfg
	if cfg.Replicas <= 0 {
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
	c.repl = &replicaState{
		pl:      pl,
		sel:     rng.Derive(cfg.Seed, "replica-select"),
		suspect: make([]bool, len(c.hosts)),
		rtt:     metrics.NewRunningQuantile(0.95),
	}
	return nil
}

// Placement exposes the replica placement (nil when replication is off).
func (c *Cluster) Placement() *placement.Placement {
	if c.repl == nil {
		return nil
	}
	return c.repl.pl
}

// PartitionHosts returns, per partition, the topology NodeIDs of its
// replica hosts — the input the consolidation planner's last-replica guard
// takes. Nil when replication is off.
func (c *Cluster) PartitionHosts() [][]topology.NodeID {
	if c.repl == nil {
		return nil
	}
	out := make([][]topology.NodeID, c.repl.pl.Partitions())
	for p := range out {
		reps := c.repl.pl.Replicas(p)
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
func (c *Cluster) ReadmitReplicas() {
	if c.repl == nil {
		return
	}
	for i := range c.repl.suspect {
		c.repl.suspect[i] = false
	}
}

// rquery is the aggregator-side state of one replicated query (one
// sub-query per partition). Same termination contract as the broadcast
// query: every sub-query resolves exactly once, so the query always
// terminates as completed or lost.
type rquery struct {
	start  float64
	total  int
	done   int
	failed int
	budget int // shared retry budget, spent only after failover is exhausted
	// sampler redraws the base service time per ATTEMPT: a retried or
	// hedged attempt runs on a different replica whose local interference
	// differs, which is exactly why hedging can cut the tail.
	sampler func() float64
}

// rsub tracks one partition's sub-query across failover/retry generations.
// gen is the attempt generation: callbacks carry the generation they were
// armed with and stale callbacks are ignored (and accounted, for hedges).
type rsub struct {
	q         *rquery
	aggIdx    int
	part      int
	gen       int
	inflight  int // live attempts of the current generation (1, or 2 hedged)
	resolved  bool
	failovers int
	// tried lists hosts attempted for this sub-query (reset when a retry
	// reopens the full replica set); targets lists the CURRENT generation's
	// hosts, so a timeout can mark everything it covered as suspect.
	tried    []int
	targets  []int
	sentAt   float64
	timer    sim.EventID
	hasTimer bool
	hedge    sim.EventID
	hasHedge bool
}

// submitReplicated fans one query out to one replica per partition.
func (c *Cluster) submitReplicated(aggIdx int, sampler func() float64) {
	q := &rquery{
		start:   c.eng.Now(),
		total:   c.repl.pl.Partitions(),
		budget:  c.Cfg.RetryBudget,
		sampler: sampler,
	}
	for p := 0; p < q.total; p++ {
		sq := &rsub{q: q, aggIdx: aggIdx, part: p}
		c.sendReplicaAttempt(sq, false)
	}
}

// pickReplica chooses the next attempt's host: untried live replicas in
// preference order first, then untried ones (a suspect beats giving up),
// then any live replica, then the primary. SelPowerOfTwo additionally
// compares the server queues of two seeded draws from the candidate tier.
func (c *Cluster) pickReplica(sq *rsub) int {
	reps := c.repl.pl.Replicas(sq.part)
	tried := func(h int) bool {
		for _, t := range sq.tried {
			if t == h {
				return true
			}
		}
		return false
	}
	cand := c.repl.cand[:0]
	for _, h := range reps {
		if !tried(h) && !c.repl.suspect[h] {
			cand = append(cand, h)
		}
	}
	if len(cand) == 0 {
		for _, h := range reps {
			if !tried(h) {
				cand = append(cand, h)
			}
		}
	}
	if len(cand) == 0 {
		for _, h := range reps {
			if !c.repl.suspect[h] {
				cand = append(cand, h)
			}
		}
	}
	if len(cand) == 0 {
		cand = append(cand, reps[0])
	}
	c.repl.cand = cand
	if c.Cfg.Selection == SelPowerOfTwo && len(cand) > 1 {
		i := c.repl.sel.Intn(len(cand))
		j := c.repl.sel.Intn(len(cand) - 1)
		if j >= i {
			j++
		}
		a, b := cand[i], cand[j]
		qa, qb := c.srvs[a].QueueLen(), c.srvs[b].QueueLen()
		if qb < qa || (qb == qa && b < a) {
			return b
		}
		return a
	}
	return cand[0]
}

// hedgeDelay returns the current hedge-trigger delay: the explicit
// override if configured, else the tracked p95 sub-query RTT once warmed,
// else the full end-to-end budget (no premature hedging on cold stats).
func (c *Cluster) hedgeDelay() float64 {
	if c.Cfg.HedgeDelayS > 0 {
		return c.Cfg.HedgeDelayS
	}
	if c.repl.rtt.Count() >= hedgeWarmupSamples {
		return c.repl.rtt.Value()
	}
	return c.Cfg.ServerBudget + c.Cfg.NetworkBudget
}

// sendReplicaAttempt transmits one attempt of sq. Non-hedge attempts own
// the generation's timers (retry timeout, hedge trigger); a hedge shares
// the original's timeout. A replica co-located with the aggregator
// executes locally — no network hop in either direction.
func (c *Cluster) sendReplicaAttempt(sq *rsub, isHedge bool) {
	target := c.pickReplica(sq)
	gen := sq.gen
	sq.tried = append(sq.tried, target)
	sq.targets = append(sq.targets, target)
	sq.inflight++
	c.stats.SubAttempts++
	if isHedge {
		c.stats.Hedges++
	} else {
		sq.sentAt = c.eng.Now()
		if c.Cfg.SubQueryTimeout > 0 {
			sq.timer = c.eng.After(c.Cfg.SubQueryTimeout, func() { c.replicaTimeout(sq, gen) })
			sq.hasTimer = true
		}
		if c.Cfg.Selection == SelHedged {
			sq.hedge = c.eng.After(c.hedgeDelay(), func() { c.fireHedge(sq, gen) })
			sq.hasHedge = true
		}
	}
	base := sq.q.sampler()
	if target == sq.aggIdx {
		c.replicaRequestArrived(sq, gen, target, base, 0, isHedge)
		return
	}
	c.net.SendMessage(c.FlowID(sq.aggIdx, target), c.Cfg.SubQueryBytes,
		func(netLat float64) { c.replicaRequestArrived(sq, gen, target, base, netLat, isHedge) },
		func() { c.replicaDrop(sq, gen, target, isHedge) })
}

// fireHedge launches the duplicate attempt when the hedge timer elapses
// with the original still unresolved.
func (c *Cluster) fireHedge(sq *rsub, gen int) {
	sq.hasHedge = false
	if sq.resolved || gen != sq.gen {
		return
	}
	c.sendReplicaAttempt(sq, true)
}

// replicaRequestArrived turns a delivered request into a server request
// with the measured network slack — the same §IV-C monitor as the
// broadcast path, per attempt.
func (c *Cluster) replicaRequestArrived(sq *rsub, gen, target int, base, netLat float64, isHedge bool) {
	if sq.resolved || gen != sq.gen {
		if isHedge {
			c.stats.HedgeWasted++ // suppressed before reaching the server
		}
		return
	}
	now := c.eng.Now()
	c.stats.NetReqLat.Add(netLat)
	reqBudget := c.Cfg.NetworkBudget * c.Cfg.RequestBudgetFrac
	if c.Cfg.FullBudgetSlack {
		reqBudget = c.Cfg.NetworkBudget
	}
	slack := 0.0
	if c.Cfg.UseSlack {
		slack = reqBudget - netLat
		if slack < 0 {
			slack = 0
		}
	}
	c.stats.SlackGranted.Add(slack)
	c.nextID++
	req := &server.Request{
		ID:             c.nextID,
		Arrival:        now,
		BaseServiceS:   base,
		ServerDeadline: now + c.Cfg.ServerBudget,
		SlackDeadline:  now + c.Cfg.ServerBudget + slack,
	}
	c.enqueueReplica(sq, gen, target, req, isHedge)
}

// enqueueReplica registers the reply send on completion of this request,
// sharing the per-server pending-callback infrastructure with the
// broadcast path. The replica suppresses the reply for attempts the
// aggregator has already abandoned (the server work is wasted, as it
// would be in a real cluster) — for a hedge that suppression is its
// terminal accounting point.
func (c *Cluster) enqueueReplica(sq *rsub, gen, target int, req *server.Request, isHedge bool) {
	srv := c.srvs[target]
	if srv.OnComplete == nil {
		pend := pendingMap{}
		c.pendings[target] = pend
		srv.OnComplete = func(r *server.Request, finish float64) {
			if cb, ok := pend[r.ID]; ok {
				delete(pend, r.ID)
				cb()
			}
		}
	}
	arrival := req.Arrival
	c.pendings[target][req.ID] = func() {
		if sq.resolved || gen != sq.gen {
			if isHedge {
				c.stats.HedgeWasted++ // suppressed at server completion
			}
			return
		}
		now := c.eng.Now()
		c.stats.ServerLat.Add(now - arrival)
		if target == sq.aggIdx {
			c.replicaReply(sq, gen, 0, isHedge)
			return
		}
		c.net.SendMessage(c.FlowID(target, sq.aggIdx), c.Cfg.ReplyBytes,
			func(replyLat float64) { c.replicaReply(sq, gen, replyLat, isHedge) },
			func() { c.replicaDrop(sq, gen, target, isHedge) })
	}
	if c.Cfg.AdmissionControl {
		if !srv.TryEnqueue(req) {
			delete(c.pendings[target], req.ID)
			c.stats.RejectedSub++
			if isHedge {
				c.stats.HedgeWasted++ // refused at the bounded queue
			}
			// A full queue is load, not death: no suspect mark.
			sq.inflight--
			if sq.inflight <= 0 {
				c.failReplica(sq, false)
			}
		}
		return
	}
	srv.Enqueue(req)
}

// replicaReply resolves a sub-query whose reply made it back first.
func (c *Cluster) replicaReply(sq *rsub, gen int, replyLat float64, isHedge bool) {
	if sq.resolved || gen != sq.gen {
		if isHedge {
			c.stats.HedgeWasted++ // the original won, or a retry superseded us
		}
		return
	}
	sq.resolved = true
	c.disarmReplicaTimers(sq)
	if isHedge {
		c.stats.HedgeWins++
	}
	c.stats.NetReplyLat.Add(replyLat)
	c.repl.rtt.Add(c.eng.Now() - sq.sentAt)
	sq.q.done++
	c.finishReplica(sq)
}

// replicaDrop handles a drop notification for either direction of an
// attempt. The target becomes suspect; the sub-query only fails over once
// every attempt of the current generation is dead (a dropped original with
// a hedge still racing does nothing yet).
func (c *Cluster) replicaDrop(sq *rsub, gen, target int, isHedge bool) {
	c.stats.DroppedSub++
	if isHedge {
		c.stats.HedgeWasted++ // terminal for the hedge either way
	}
	if sq.resolved || gen != sq.gen {
		return
	}
	c.repl.suspect[target] = true
	sq.inflight--
	if sq.inflight <= 0 {
		c.failReplica(sq, false)
	}
}

// replicaTimeout fires when no attempt of the generation replied in time.
// Every host the generation touched is marked suspect — the timer cannot
// tell which attempt stalled.
func (c *Cluster) replicaTimeout(sq *rsub, gen int) {
	if sq.resolved || gen != sq.gen {
		return
	}
	sq.hasTimer = false
	c.stats.Timeouts++
	for _, h := range sq.targets {
		c.repl.suspect[h] = true
	}
	c.failReplica(sq, true)
}

// failReplica advances a dead generation: first failover (R-1 distinct
// replicas, not charged to the query's budget), then the shared
// RetryBudget with the full replica set reopened, then the sub-query
// resolves failed. Timeout-triggered re-sends go immediately (the timeout
// already waited); drop-triggered ones wait RetryDelay so route repair
// can land first — the same contract as the broadcast path.
func (c *Cluster) failReplica(sq *rsub, fromTimeout bool) {
	c.disarmReplicaTimers(sq)
	sq.gen++ // late callbacks from the dead generation become stale
	sq.inflight = 0
	sq.targets = sq.targets[:0]
	resend := func() {
		if !sq.resolved {
			c.sendReplicaAttempt(sq, false)
		}
	}
	if sq.failovers < c.Cfg.Replicas-1 {
		sq.failovers++
		c.stats.Failovers++
		if fromTimeout {
			resend()
		} else {
			c.eng.After(c.Cfg.RetryDelay, resend)
		}
		return
	}
	if sq.q.budget > 0 {
		sq.q.budget--
		c.stats.Retries++
		sq.tried = sq.tried[:0] // every replica burned once; reopen the set
		if fromTimeout {
			resend()
		} else {
			c.eng.After(c.Cfg.RetryDelay, resend)
		}
		return
	}
	sq.resolved = true
	sq.q.failed++
	c.finishReplica(sq)
}

// disarmReplicaTimers cancels the generation's pending timers, if armed.
func (c *Cluster) disarmReplicaTimers(sq *rsub) {
	if sq.hasTimer {
		c.eng.Cancel(sq.timer)
		sq.hasTimer = false
	}
	if sq.hasHedge {
		c.eng.Cancel(sq.hedge)
		sq.hasHedge = false
	}
}

// finishReplica closes the query once every partition's sub-query has
// resolved — the same completed/lost accounting as the broadcast path.
func (c *Cluster) finishReplica(sq *rsub) {
	q := sq.q
	if q.done+q.failed != q.total {
		return
	}
	if q.failed > 0 {
		c.stats.QueriesLost++
		return
	}
	lat := c.eng.Now() - q.start
	c.stats.Queries++
	c.stats.QueryLatency.Add(lat)
	if lat > c.Cfg.ServerBudget+c.Cfg.NetworkBudget+1e-12 {
		c.stats.SLAMisses++
	}
	if c.OnQueryComplete != nil {
		c.OnQueryComplete(lat)
	}
}
