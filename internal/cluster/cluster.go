// Package cluster simulates the paper's partition-aggregate web-search
// application (§V-A): each user query arrives at an aggregator host, which
// sends one sub-query per data partition to an Index Serving Node; each
// ISN processes its sub-query on a DVFS-managed server and returns a
// reply; the query completes when the last reply reaches the aggregator.
//
// Every sub-query runs one lifecycle — send, request arrival, server,
// reply, and on a drop or timeout failover, retry or failure — on either
// tier. Only the candidate hosts differ. On the default broadcast tier
// every host but the aggregator is its own one-replica partition (1
// aggregator + 15 ISNs on the 16-host cell); with Config.Replicas > 0 a
// partition's candidates are its replicas from internal/placement
// (replica.go).
//
// The per-request latency monitor of the EPRONS framework lives here: the
// measured network latency of each sub-query request is turned into slack
// ("we only use the request slack", §IV-C) and added to the sub-query's
// compute deadline before it enters the server.
//
// A sub-query attempt costs no heap allocation in steady state. Queries,
// sub-queries and attempts are records on per-cluster free lists. An
// attempt binds its network callbacks once, when it is first made, and a
// sub-query's timers are typed engine events that name it by index. An
// attempt's life is linear (request in the network, at
// the server, reply in the network), so one stage owns it at a time; it
// holds its server.Request in place, and the request's ID leads the
// server's completion callback straight back to it. An attempt returns to
// its free list at its terminal point; a sub-query once it is resolved
// and no attempt of any generation (nor a retry timer) still holds it; a
// query when its last sub-query resolves. AuditPools checks after a drain
// that every record came back exactly once.
package cluster

import (
	"fmt"

	"eprons/internal/dist"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/placement"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// subQueryBytes and replyBytes size the two message types.
const (
	subQueryBytes = 1500
	replyBytes    = 6000
)

// Config parameterizes the search cluster.
type Config struct {
	// ServiceDist is the sub-query base service-time distribution at fmax.
	ServiceDist *dist.Discrete
	// Alpha is the frequency-dependent fraction of service time.
	Alpha float64
	// CoresPerServer (default 12).
	CoresPerServer int
	// ServerBudget is the compute portion of the SLA (paper: 25 ms).
	ServerBudget float64
	// NetworkBudget is the network portion (paper: 5 ms).
	NetworkBudget float64
	// RequestBudgetFrac is the share of NetworkBudget allotted to the
	// request direction when computing slack (default 0.5).
	RequestBudgetFrac float64
	// UseSlack feeds measured network slack into sub-query deadlines
	// (disable for slack-blind baselines; the policy still decides
	// whether to look at SlackDeadline).
	UseSlack bool
	// FullBudgetSlack grants the ENTIRE network budget minus the request
	// latency as slack — the "simplistic" accounting the paper criticizes
	// in TimeTrader ("the lack of a queue build-up is treated
	// simplistically by adding the full network latency budget to the
	// compute slack", §I). EPRONS's conservative default reserves the
	// reply direction's share.
	FullBudgetSlack bool
	// PolicyFactory builds the DVFS policy per (host, core).
	PolicyFactory func(host, core int) server.Policy
	// Seed drives aggregator choice.
	Seed int64

	// SubQueryTimeout arms a per-sub-query retry timer at the aggregator:
	// if the reply has not arrived this many seconds after the sub-query
	// was sent, the attempt is abandoned (a late reply is ignored) and the
	// sub-query is retried if budget remains, else marked failed. 0
	// (default) disables the timers entirely — no extra events are
	// scheduled, preserving the determinism contract for fault-free runs;
	// dropped messages are still detected through the simulator's drop
	// notifications so a lost sub-query can never strand its query.
	SubQueryTimeout float64
	// RetryBudget is the number of sub-query re-sends each query may spend
	// across all of its sub-queries (the paper's consolidation transients
	// are short; a small budget suffices). 0 (default) disables retries: a
	// failed sub-query immediately marks the whole query lost.
	RetryBudget int
	// RetryDelay is the pause before re-sending a sub-query whose message
	// was reported dropped (default 1 ms) — immediate re-sends on a dead
	// route would burn the whole budget before route repair can run.
	// Timeout-triggered retries re-send immediately, since the timeout
	// itself already waited.
	RetryDelay float64

	// Replicas enables the replicated data tier: Partitions × Replicas
	// replica placements by consistent hashing (internal/placement), and a
	// query touches one replica per partition. 0 (the default) is the
	// broadcast tier: every host but the aggregator is its own one-replica
	// partition. See replica.go.
	Replicas int
	// Partitions is the number of data partitions (default len(hosts)-1,
	// matching the broadcast fan-out's sub-query count per query). Must be
	// 0 with Replicas == 0.
	Partitions int
	// HostPods maps host index → failure domain (pod) for replica
	// spreading: no two replicas of a partition share a pod when Replicas
	// ≤ distinct pods. Nil treats all hosts as one domain.
	HostPods []int
	// Selection picks which replica serves each sub-query (SelPrimary,
	// SelPowerOfTwo, SelHedged). Must be SelPrimary with Replicas == 0.
	Selection SelectionPolicy
	// HedgeDelayS overrides the hedge-trigger delay for SelHedged; 0 (the
	// default) tracks the p95 of resolved sub-query round trips. Must be 0
	// with Replicas == 0.
	HedgeDelayS float64

	// AdmissionControl enables the overload control plane: bounded
	// per-server queues (server.Config.QueueLimit = the high watermark)
	// plus watermark-based admission with SLA-aware load shedding at the
	// aggregator. Off by default — every pre-overload experiment and the
	// figure bit-identity contract run with unbounded queues and no
	// shedding.
	AdmissionControl bool
	// Admission tunes the watermark state machine. A zero HighWM derives
	// the SLA-aware default from the service distribution: the per-server
	// queue depth beyond which a new sub-query cannot meet ServerBudget
	// even at fmax (see SLAWatermark). Ignored unless AdmissionControl.
	Admission Admission
}

// DefaultConfig fills the paper's values around a service distribution and
// a policy factory.
func DefaultConfig(d *dist.Discrete, factory func(host, core int) server.Policy) Config {
	return Config{
		ServiceDist:       d,
		Alpha:             0.9,
		CoresPerServer:    power.CoresPerServer,
		ServerBudget:      25e-3,
		NetworkBudget:     5e-3,
		RequestBudgetFrac: 0.5,
		UseSlack:          true,
		PolicyFactory:     factory,
		Seed:              1,
	}
}

func (c *Config) fill() error {
	if c.ServiceDist == nil {
		return fmt.Errorf("cluster: nil service distribution")
	}
	if c.PolicyFactory == nil {
		return fmt.Errorf("cluster: nil policy factory")
	}
	if c.CoresPerServer <= 0 {
		c.CoresPerServer = power.CoresPerServer
	}
	if c.RequestBudgetFrac <= 0 || c.RequestBudgetFrac > 1 {
		c.RequestBudgetFrac = 0.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SubQueryTimeout < 0 {
		c.SubQueryTimeout = 0
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 1e-3
	}
	if c.Replicas < 0 {
		return fmt.Errorf("cluster: negative replica count %d", c.Replicas)
	}
	if c.Selection < SelPrimary || c.Selection > SelHedged {
		return fmt.Errorf("cluster: unknown selection policy %d", int(c.Selection))
	}
	if c.HedgeDelayS < 0 {
		return fmt.Errorf("cluster: negative hedge delay %g", c.HedgeDelayS)
	}
	if c.Replicas == 0 && (c.Selection != SelPrimary || c.HedgeDelayS != 0 || c.Partitions != 0) {
		return fmt.Errorf("cluster: selection %v, hedge delay %g and %d partitions need Replicas > 0",
			c.Selection, c.HedgeDelayS, c.Partitions)
	}
	if c.AdmissionControl {
		if c.Admission.HighWM <= 0 {
			c.Admission.HighWM = SLAWatermark(c.CoresPerServer, c.ServerBudget, c.ServiceDist.Mean())
		}
		if err := c.Admission.Normalize(); err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates query-level results. Only the two latencies whose tails
// are read (QueryLatency and NetReqLat) keep their samples; the
// per-sub-query breakdown that is only ever averaged keeps a count and a
// sum. The accounting identity (the conservation identity the drain-point
// audit asserts on every robustness cell) is
//
//	QueriesSubmitted = Queries + QueriesLost + QueriesShed + Orphans()
//
// where Orphans() is the number of queries still unresolved (in flight, or
// stranded by a bug — a drained engine must leave it at zero).
type Stats struct {
	// QueriesSubmitted counts every query handed to SubmitQuery, including
	// the ones admission control immediately shed.
	QueriesSubmitted int
	// Queries counts completed queries: every sub-query answered.
	Queries      int
	QueryLatency metrics.Tracker // end-to-end (aggregate of 15 sub-queries)
	SLAMisses    int             // end-to-end latency > ServerBudget+NetworkBudget
	// QueriesLost counts queries that terminated incomplete: at least one
	// sub-query was dropped or timed out with no retry budget left. They
	// are the honest denominator share that used to silently vanish.
	QueriesLost  int
	NetReqLat    metrics.Tracker // per-sub-query request network latency
	NetReplyLat  metrics.Sum     // per-sub-query reply network latency
	ServerLat    metrics.Sum     // per-sub-query server time (queue + service)
	SlackGranted metrics.Sum     // per-sub-query slack handed to the server
	// DroppedSub counts dropped sub-query messages (request or reply), at
	// most once per message.
	DroppedSub int
	// Retries counts sub-query re-sends; Timeouts counts retry timers
	// that fired (Config.SubQueryTimeout).
	Retries  int
	Timeouts int
	// QueriesShed counts queries rejected fast at the aggregator by
	// admission control (Config.AdmissionControl): no sub-queries were
	// sent, no server or network resources were spent. Shed work is
	// explicit — it is neither completed, nor lost, nor orphaned.
	QueriesShed int
	// RejectedSub counts sub-queries refused at an ISN's bounded queue
	// (server.TryEnqueue at the high watermark) — the backstop behind the
	// aggregator-side watermark. Each rejection follows the drop/retry
	// path, so the query still terminates.
	RejectedSub int
	// ShedTransitions counts LevelNormal/LevelDefer→LevelShed edges — how
	// many distinct shedding episodes the run saw (hysteresis keeps this
	// far below QueriesShed under a sustained surge).
	ShedTransitions int
	// SubAttempts counts every attempt transmitted on either tier
	// (originals, failovers, retries and hedges), the denominator of the
	// hedge extra-work cost: a fault-free broadcast query on the 16-host
	// cell sends 15.
	SubAttempts int
	// Failovers counts re-sends redirected to a DIFFERENT replica after a
	// drop or timeout — spent before the query's shared RetryBudget. Zero
	// on the broadcast tier, whose partitions have one replica each.
	Failovers int
	// Hedges counts duplicate attempts launched by SelHedged; HedgeWins
	// counts sub-queries the duplicate resolved first; HedgeWasted counts
	// duplicates that terminated without winning (dropped, suppressed at
	// the server, or late). After the engine drains every hedge has
	// terminated exactly once: Hedges == HedgeWins + HedgeWasted — the
	// hedge-accounting identity the audit harness asserts.
	Hedges      int
	HedgeWins   int
	HedgeWasted int
}

// Orphans returns the number of submitted queries not yet resolved as
// completed, lost or shed. After the event queue drains it must be zero:
// every failure path resolves its query.
func (s *Stats) Orphans() int {
	return s.QueriesSubmitted - s.Queries - s.QueriesLost - s.QueriesShed
}

// ShedRate returns the fraction of submitted queries rejected by admission
// control.
func (s *Stats) ShedRate() float64 {
	if s.QueriesSubmitted == 0 {
		return 0
	}
	return float64(s.QueriesShed) / float64(s.QueriesSubmitted)
}

// Goodput returns the fraction of submitted queries that completed.
func (s *Stats) Goodput() float64 {
	if s.QueriesSubmitted == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.QueriesSubmitted)
}

// Cluster wires hosts, servers and the network.
type Cluster struct {
	Cfg   Config
	eng   *sim.Engine
	net   *netsim.Network
	hosts []topology.NodeID
	srvs  []*server.Server
	stats Stats

	agg *rng.Stream

	// Record pools (see query, subQuery and attempt). subs and atts hold
	// every sub-query and attempt record ever made, indexed by the timer
	// argument and the server request ID that lead back to them. New
	// records are carved from slabs of recordSlab, so a fan-out that
	// needs thousands at once allocates a few slabs, not a record each.
	// The free lists hold the records not in use, and AuditPools checks
	// that a drained run has put every one back.
	subs        []*subQuery
	atts        []*attempt
	subSlab     []subQuery
	attSlab     []attempt
	freeSubs    []*subQuery
	freeAtts    []*attempt
	freeQueries []*query
	madeQueries int
	doubleFrees int
	// The typed-event kinds of a sub-query's timers; the argument is the
	// sub-query's index in subs.
	timeoutKind, hedgeKind, retryKind sim.Kind

	// Replica selection state (replica.go). pl and sel are nil on the
	// broadcast tier.
	pl  *placement.Placement
	sel *rng.Stream // power-of-two candidate draws
	// suspect marks hosts believed down (their attempts dropped or timed
	// out); selection and failover skip them until ReadmitReplicas.
	suspect []bool
	// rtt tracks the p95 of resolved sub-query round trips, the
	// hedge-trigger delay once warmed up (SelHedged only).
	rtt  metrics.RunningQuantile
	cand []int // pick's candidate scratch buffer

	// adm is the admission state machine (Config.AdmissionControl); its
	// zero value with admission disabled is never consulted.
	adm Admission

	// OnQueryComplete, if set, observes every completed query's end-to-end
	// latency (seconds). The overload harness feeds a sliding latency
	// window from it to derive a tail-latency saturation signal; nil (the
	// default) costs nothing.
	OnQueryComplete func(latS float64)
}

// New builds the cluster over an existing network. hosts are the
// participating nodes (all of them act as both potential aggregator and
// ISN, mirroring the 1-aggregator + 15-ISN setup per query).
func New(net *netsim.Network, hosts []topology.NodeID, cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(hosts) < 2 {
		return nil, fmt.Errorf("cluster: need at least 2 hosts")
	}
	c := &Cluster{
		Cfg:   cfg,
		eng:   net.Engine(),
		net:   net,
		hosts: hosts,
		agg:   rng.Derive(cfg.Seed, "aggregator"),
		adm:   cfg.Admission,

		suspect: make([]bool, len(hosts)),
		rtt:     metrics.NewRunningQuantile(0.95),
	}
	if err := initReplication(c); err != nil {
		return nil, err
	}
	queueLimit := 0
	if cfg.AdmissionControl {
		// Bounded per-server queues: the ISN-side backstop is the same
		// high watermark the aggregator sheds at.
		queueLimit = cfg.Admission.HighWM
	}
	c.timeoutKind = c.eng.Handle(func(i int32) { c.onTimeout(c.subs[i]) })
	c.hedgeKind = c.eng.Handle(func(i int32) { c.fireHedge(c.subs[i]) })
	c.retryKind = c.eng.Handle(func(i int32) { c.retry(c.subs[i]) })
	served := c.served
	for i := range hosts {
		i := i
		srv, err := server.New(c.eng, server.Config{
			Cores:   cfg.CoresPerServer,
			Alpha:   cfg.Alpha,
			FMaxGHz: power.FMaxGHz,
			PolicyFactory: func(core int) server.Policy {
				return cfg.PolicyFactory(i, core)
			},
			QueueLimit: queueLimit,
		})
		if err != nil {
			return nil, err
		}
		srv.OnComplete = served
		c.srvs = append(c.srvs, srv)
	}
	return c, nil
}

// FlowID maps an ordered host-index pair to a stable flow identifier used
// for routing and consolidation. Pair flows exist in both directions.
func (c *Cluster) FlowID(srcIdx, dstIdx int) flow.ID {
	return flow.ID(srcIdx*len(c.hosts) + dstIdx)
}

// PairFlows returns one latency-sensitive flow per ordered host pair with
// the given aggregate demand estimate per flow — the input the
// consolidator sees for query traffic. IDs match FlowID.
func (c *Cluster) PairFlows(demandBps float64) []flow.Flow {
	var out []flow.Flow
	for i := range c.hosts {
		for j := range c.hosts {
			if i == j {
				continue
			}
			out = append(out, flow.Flow{
				ID:        c.FlowID(i, j),
				Src:       c.hosts[i],
				Dst:       c.hosts[j],
				DemandBps: demandBps,
				Class:     flow.LatencySensitive,
			})
		}
	}
	return out
}

// QueryDemandBps estimates the per-pair demand created by a query rate:
// each query sends one sub-query i→j and one reply j→i for every pair in
// which i is the aggregator (probability 1/len(hosts)).
func (c *Cluster) QueryDemandBps(queriesPerSec float64) float64 {
	perPair := queriesPerSec / float64(len(c.hosts))
	return perPair * float64(subQueryBytes+replyBytes) * 8
}

// InstallShortestRoutes installs shortest active paths for every ordered
// host pair over the given active set (used when running under a fixed
// aggregation policy rather than a consolidation result).
func (c *Cluster) InstallShortestRoutes(active *topology.ActiveSet) error {
	for i := range c.hosts {
		for j := range c.hosts {
			if i == j {
				continue
			}
			p := active.ShortestActivePath(c.hosts[i], c.hosts[j])
			if p == nil {
				return fmt.Errorf("cluster: no active path %d→%d", i, j)
			}
			if err := c.net.SetRoute(c.FlowID(i, j), p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Servers exposes the per-host servers (for stats).
func (c *Cluster) Servers() []*server.Server { return c.srvs }

// Stats returns aggregate query statistics.
func (c *Cluster) Stats() *Stats { return &c.stats }

// Pressure returns the admission pressure signal: the maximum per-server
// queue length (queued + in service). A partition-aggregate query fans out
// to every ISN, so the most loaded server bounds its feasibility.
func (c *Cluster) Pressure() int {
	worst := 0
	for _, srv := range c.srvs {
		if n := srv.QueueLen(); n > worst {
			worst = n
		}
	}
	return worst
}

// TotalQueueLen sums queued + in-service requests across all servers (the
// backlog metric of the no-admission overload baseline).
func (c *Cluster) TotalQueueLen() int {
	n := 0
	for _, srv := range c.srvs {
		n += srv.QueueLen()
	}
	return n
}

// PeakQueue returns the highest per-server queue length seen anywhere in
// the cluster so far.
func (c *Cluster) PeakQueue() int {
	worst := 0
	for _, srv := range c.srvs {
		if p := srv.Stats().PeakQueue; p > worst {
			worst = p
		}
	}
	return worst
}

// AdmissionLevel returns the current admission level (LevelNormal when
// admission control is disabled).
func (c *Cluster) AdmissionLevel() Level {
	if !c.Cfg.AdmissionControl {
		return LevelNormal
	}
	return c.adm.Level()
}

// Shedding reports whether the aggregator is currently rejecting queries.
func (c *Cluster) Shedding() bool { return c.AdmissionLevel() == LevelShed }

// Deferring reports whether latency-tolerant background work should pause
// (the first stage of the shed ordering). Background sources poll it from
// their rate callbacks.
func (c *Cluster) Deferring() bool { return c.AdmissionLevel() >= LevelDefer }

// SaturationEpochs sums the per-server DVFS saturation counters — the
// number of decisions where even fmax could not meet the SLA. This is the
// signal the controller's surge response watches (zero for policies that
// cannot report saturation, e.g. MaxFreq).
func (c *Cluster) SaturationEpochs() int64 {
	var n int64
	for _, srv := range c.srvs {
		n += srv.SaturationEpochs()
	}
	return n
}

// query is the aggregator-side state of one partition-aggregate query. It
// resolves exactly once per sub-query (success or failure), so the query
// itself always terminates as completed or lost — never silently vanishing
// the way a dropped sub-query used to. It returns to its free list the
// moment its last sub-query resolves: a resolved sub-query never reads
// its query again.
type query struct {
	start   float64
	total   int
	done    int            // sub-queries answered
	failed  int            // sub-queries permanently failed
	budget  int            // shared retry budget, spent only after failover is exhausted
	sampler func() float64 // base service-time draws
}

// subQuery tracks one partition's sub-query across its attempts. A
// generation is the original send plus, under SelHedged, one hedge
// duplicate; once every attempt of a generation is dead (dropped, refused
// or timed out) the next generation fails over or retries.
//
// The record is pooled. It returns to its free list once it is resolved
// and holds reaches zero: no attempt of any generation is live (a stale
// attempt still in the network or a server queue holds it too) and no
// retry timer is pending. The timeout and hedge timers never outlive
// resolution, which disarms them.
type subQuery struct {
	q         *query // nil once resolved
	idx       int32  // index in Cluster.subs
	aggIdx    int
	part      int
	gen       int32
	inflight  int32 // live attempts of the current generation (1, or 2 hedged)
	holds     int32 // live attempts of every generation, plus a pending retry
	failovers int
	resolved  bool
	hasTimer  bool
	hasHedge  bool
	pooled    bool
	// host and base hold the current generation's target hosts and base
	// service times by attempt slot (0 the original, 1 the hedge). An
	// original send fills both host slots, so a generation without a hedge
	// names its one host twice.
	host [2]int
	base [2]float64
	// tried lists the hosts tried since a retry last reopened the replica
	// set; it stays empty for one-candidate partitions. Its backing array
	// stays with the record across reuse.
	tried      []int
	sentAt     float64
	timer      sim.EventID
	hedgeTimer sim.EventID
}

// attempt is one send of a sub-query: its generation, slot and host, and
// the server request it becomes on arrival. Its life is linear — request
// in the network, request at the server, reply in the network — so
// exactly one stage owns it at a time, and it returns to its free list at
// its terminal point: a drop of either message, a refusal at a bounded
// queue, suppression as stale on arrival or at server completion, or the
// reply's arrival. A stale attempt (a late reply racing a retry, a drop of
// an abandoned attempt) is ignored there — and, for a hedge, accounted.
type attempt struct {
	// req is the server request, held in place so its pointer is stable
	// while it waits in a server queue. Its ID is idx: the server's
	// completion callback leads straight back to this record.
	req       server.Request
	sq        *subQuery
	gen, slot int32
	host      int
	idx       int32 // index in Cluster.atts
	reply     bool  // the reply is in the network, not the request
	pooled    bool
	// The network callbacks, bound to this record when it is first made:
	// delivery of the message in flight, and its drop.
	onDelivered func(latS float64)
	onDrop      func()
}

func (a *attempt) hedge() bool { return a.slot == 1 }

// stale reports whether a belongs to an abandoned generation or to a
// sub-query that already resolved.
func (a *attempt) stale() bool { return a.sq.resolved || a.gen != a.sq.gen }

// newQuery takes a query record from the free list, or makes one.
func (c *Cluster) newQuery() *query {
	if n := len(c.freeQueries); n > 0 {
		q := c.freeQueries[n-1]
		c.freeQueries = c.freeQueries[:n-1]
		return q
	}
	c.madeQueries++
	return &query{}
}

// recordSlab is the number of records a slab holds.
const recordSlab = 64

// newSubQuery takes a sub-query record from the free list, or makes one.
func (c *Cluster) newSubQuery(q *query, aggIdx, part int) *subQuery {
	var sq *subQuery
	if n := len(c.freeSubs); n > 0 {
		sq = c.freeSubs[n-1]
		c.freeSubs = c.freeSubs[:n-1]
	} else {
		if len(c.subSlab) == 0 {
			c.subSlab = make([]subQuery, recordSlab)
		}
		sq, c.subSlab = &c.subSlab[0], c.subSlab[1:]
		sq.idx = int32(len(c.subs))
		c.subs = append(c.subs, sq)
	}
	*sq = subQuery{q: q, idx: sq.idx, aggIdx: aggIdx, part: part, tried: sq.tried[:0]}
	return sq
}

// newAttempt takes an attempt record from the free list, or makes one and
// binds its network callbacks, and points it at sq's current generation.
func (c *Cluster) newAttempt(sq *subQuery, slot int32, host int) *attempt {
	var a *attempt
	if n := len(c.freeAtts); n > 0 {
		a = c.freeAtts[n-1]
		c.freeAtts = c.freeAtts[:n-1]
	} else {
		if len(c.attSlab) == 0 {
			c.attSlab = make([]attempt, recordSlab)
		}
		a, c.attSlab = &c.attSlab[0], c.attSlab[1:]
		a.idx = int32(len(c.atts))
		a.onDelivered = func(latS float64) { c.delivered(a, latS) }
		a.onDrop = func() { c.onDrop(a) }
		c.atts = append(c.atts, a)
	}
	a.pooled, a.reply = false, false
	a.sq, a.gen, a.slot, a.host = sq, sq.gen, slot, host
	sq.holds++
	return a
}

// endAttempt returns a to the free list at its terminal point, and its
// sub-query with it if that was the sub-query's last hold.
func (c *Cluster) endAttempt(a *attempt) {
	if a.pooled {
		c.doubleFrees++
		return
	}
	sq := a.sq
	a.sq, a.pooled = nil, true
	c.freeAtts = append(c.freeAtts, a)
	sq.holds--
	c.recycleSub(sq)
}

// recycleSub returns sq to the free list once it is resolved and nothing
// holds it.
func (c *Cluster) recycleSub(sq *subQuery) {
	if !sq.resolved || sq.holds > 0 {
		return
	}
	if sq.pooled {
		c.doubleFrees++
		return
	}
	sq.pooled = true
	c.freeSubs = append(c.freeSubs, sq)
}

// AuditPools checks, once the engine has drained, that every pooled query,
// sub-query and attempt record is back on its free list exactly once:
// none leaked by a lifecycle path that forgot to end it, none freed twice.
func (c *Cluster) AuditPools() error {
	if c.doubleFrees > 0 {
		return fmt.Errorf("cluster: %d records freed twice", c.doubleFrees)
	}
	for _, p := range []struct {
		name       string
		made, free int
	}{
		{"query", c.madeQueries, len(c.freeQueries)},
		{"sub-query", len(c.subs), len(c.freeSubs)},
		{"attempt", len(c.atts), len(c.freeAtts)},
	} {
		if p.made != p.free {
			return fmt.Errorf("cluster: %d of %d %s records off the free list after drain", p.made-p.free, p.made, p.name)
		}
	}
	return nil
}

// SubmitQuery runs one partition-aggregate query starting now: a random
// aggregator sends one sub-query per partition (see pick for the
// candidate hosts); sampler provides the base service times. A sub-query
// whose request or reply is dropped — or, with SubQueryTimeout set, whose
// reply is late — fails over to another replica, then retries while the
// query's RetryBudget lasts, then marks the query lost.
//
// With AdmissionControl on, the aggregator first folds the current queue
// pressure into the watermark state machine; at LevelShed the query is
// rejected fast — counted in QueriesShed, no sub-queries sent, no server
// or network work spent. The aggregator still consumes one draw from its
// choice stream, so admitted queries land on the same aggregators they
// would without shedding (determinism across admission settings at equal
// admitted prefixes).
func (c *Cluster) SubmitQuery(sampler func() float64) {
	aggIdx := c.agg.Intn(len(c.hosts))
	c.stats.QueriesSubmitted++
	if c.Cfg.AdmissionControl {
		before := c.adm.Level()
		level := c.adm.Observe(c.Pressure())
		if level == LevelShed {
			if before != LevelShed {
				c.stats.ShedTransitions++
			}
			c.stats.QueriesShed++
			return
		}
	}
	// The loop bound is local: the last sub-query can resolve (and free q)
	// inside its own send.
	n := c.partitions()
	q := c.newQuery()
	*q = query{start: c.eng.Now(), total: n, budget: c.Cfg.RetryBudget, sampler: sampler}
	for part := 0; part < n; part++ {
		c.sendAttempt(c.newSubQuery(q, aggIdx, part), 0)
	}
}

// sendAttempt transmits one attempt of sq in the given slot. The original
// owns the generation's timers (retry timeout and, under SelHedged, the
// hedge trigger); a hedge shares the original's timeout. A replica
// co-located with the aggregator executes locally — no network hop in
// either direction.
func (c *Cluster) sendAttempt(sq *subQuery, slot int32) {
	host := c.pick(sq)
	a := c.newAttempt(sq, slot, host)
	sq.inflight++
	c.stats.SubAttempts++
	if a.hedge() {
		sq.host[1] = host
		c.stats.Hedges++
	} else {
		sq.host = [2]int{host, host}
		sq.sentAt = c.eng.Now()
		if c.Cfg.SubQueryTimeout > 0 {
			sq.timer = c.eng.AfterKind(c.Cfg.SubQueryTimeout, c.timeoutKind, sq.idx)
			sq.hasTimer = true
		}
		if c.Cfg.Selection == SelHedged {
			sq.hedgeTimer = c.eng.AfterKind(c.hedgeDelay(), c.hedgeKind, sq.idx)
			sq.hasHedge = true
		}
	}
	// Broadcast draws the base service time once per sub-query, in ISN
	// order, and reuses it on retries. Every replica attempt redraws it: a
	// re-send or hedge runs on a different replica whose local interference
	// differs, which is exactly why hedging can cut the tail.
	if c.pl != nil || sq.gen == 0 {
		sq.base[slot] = sq.q.sampler()
	}
	if host == sq.aggIdx {
		c.onRequestArrived(a, 0)
		return
	}
	c.net.SendMessage(c.FlowID(sq.aggIdx, host), subQueryBytes, a.onDelivered, a.onDrop)
}

// fireHedge launches the duplicate attempt when the hedge timer elapses.
// Resolution and every new generation disarm the timer, so when it fires
// the original is still unresolved.
func (c *Cluster) fireHedge(sq *subQuery) {
	sq.hasHedge = false
	c.sendAttempt(sq, 1)
}

// delivered is the network's delivery callback for either leg of a.
func (c *Cluster) delivered(a *attempt, latS float64) {
	if a.reply {
		c.onReplyArrived(a, latS)
	} else {
		c.onRequestArrived(a, latS)
	}
}

// onRequestArrived turns a delivered sub-query request into a server
// request with the measured network slack (paper §IV-C).
func (c *Cluster) onRequestArrived(a *attempt, netLat float64) {
	if a.stale() {
		c.wasteHedge(a) // suppressed before reaching the server
		c.endAttempt(a)
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
	a.req = server.Request{
		ID:             int64(a.idx),
		Arrival:        now,
		BaseServiceS:   a.sq.base[a.slot],
		ServerDeadline: now + c.Cfg.ServerBudget,
		SlackDeadline:  now + c.Cfg.ServerBudget + slack,
	}
	c.enqueue(a)
}

// enqueue queues the attempt's request at its host; served picks it up on
// completion.
func (c *Cluster) enqueue(a *attempt) {
	srv := c.srvs[a.host]
	if c.Cfg.AdmissionControl {
		// Bounded queue: a sub-query that slipped past the aggregator while
		// pressure rose is refused here rather than growing the queue past
		// the watermark. The refusal follows the failover/retry path so the
		// query still terminates; a full queue is load, not death, so the
		// host is not marked suspect.
		if !srv.TryEnqueue(&a.req) {
			sq := a.sq
			c.stats.RejectedSub++
			c.wasteHedge(a)
			c.endAttempt(a)
			if sq.inflight--; sq.inflight <= 0 {
				c.failAttempt(sq, false)
			}
		}
		return
	}
	srv.Enqueue(&a.req)
}

// served is every server's completion callback: it sends the reply of the
// attempt whose request finished. The host suppresses the reply for
// attempts the aggregator has already abandoned (the server work is
// wasted, as it would be in a real cluster); for a hedge that suppression
// is its terminal accounting point.
func (c *Cluster) served(r *server.Request, _ float64) {
	a := c.atts[r.ID]
	if a.stale() {
		c.wasteHedge(a) // abandoned while queued or in service
		c.endAttempt(a)
		return
	}
	c.stats.ServerLat.Add(c.eng.Now() - a.req.Arrival)
	aggIdx := a.sq.aggIdx
	if a.host == aggIdx {
		c.onReplyArrived(a, 0)
		return
	}
	a.reply = true
	c.net.SendMessage(c.FlowID(a.host, aggIdx), replyBytes, a.onDelivered, a.onDrop)
}

// onReplyArrived resolves a sub-query whose reply made it back first.
func (c *Cluster) onReplyArrived(a *attempt, replyLat float64) {
	sq := a.sq
	if a.stale() {
		c.wasteHedge(a) // the other attempt won, or a retry superseded this one
		c.endAttempt(a)
		return
	}
	sq.resolved = true
	c.disarmTimers(sq)
	if a.hedge() {
		c.stats.HedgeWins++
	}
	c.stats.NetReplyLat.Add(replyLat)
	if c.Cfg.Selection == SelHedged {
		c.rtt.Add(c.eng.Now() - sq.sentAt)
	}
	q := sq.q
	sq.q = nil
	q.done++
	c.finish(q)
	c.endAttempt(a)
}

// onDrop handles the simulator's message-level drop notification for
// either direction of an attempt. The host becomes suspect; the sub-query
// only moves on once every attempt of the generation is dead (a dropped
// original with a hedge still racing does nothing yet).
func (c *Cluster) onDrop(a *attempt) {
	c.stats.DroppedSub++
	c.wasteHedge(a) // terminal for a hedge either way
	sq, stale := a.sq, a.stale()
	if !stale {
		c.suspect[a.host] = true
	}
	c.endAttempt(a)
	if !stale {
		if sq.inflight--; sq.inflight <= 0 {
			c.failAttempt(sq, false)
		}
	}
}

// onTimeout fires when no attempt of the generation replied in time. Every
// host the generation touched is marked suspect — the timer cannot tell
// which attempt stalled. Resolution and every new generation disarm the
// timer, so when it fires the generation is still the current one.
func (c *Cluster) onTimeout(sq *subQuery) {
	sq.hasTimer = false
	c.stats.Timeouts++
	c.suspect[sq.host[0]] = true
	c.suspect[sq.host[1]] = true
	c.failAttempt(sq, true)
}

// wasteHedge counts a hedge duplicate that terminated without winning.
func (c *Cluster) wasteHedge(a *attempt) {
	if a.hedge() {
		c.stats.HedgeWasted++
	}
}

// failAttempt moves a dead generation on: first failover to another
// replica (Replicas-1 of them, not charged to the query's budget, so none
// on the broadcast tier), then the shared RetryBudget with the replica set
// reopened, then the sub-query resolves failed. Timeout-triggered re-sends
// go immediately, since the timeout already waited; drop-triggered ones
// wait RetryDelay so route repair can land first.
func (c *Cluster) failAttempt(sq *subQuery, fromTimeout bool) {
	c.disarmTimers(sq)
	sq.gen++ // late callbacks from the dead generation become stale
	sq.inflight = 0
	switch {
	case sq.failovers < c.Cfg.Replicas-1:
		sq.failovers++
		c.stats.Failovers++
	case sq.q.budget > 0:
		sq.q.budget--
		c.stats.Retries++
		sq.tried = sq.tried[:0] // every replica burned once; reopen the set
	default:
		sq.resolved = true
		q := sq.q
		sq.q = nil
		q.failed++
		c.finish(q)
		c.recycleSub(sq)
		return
	}
	if fromTimeout {
		c.sendAttempt(sq, 0)
		return
	}
	sq.holds++ // released by retry
	c.eng.AfterKind(c.Cfg.RetryDelay, c.retryKind, sq.idx)
}

// retry re-sends a sub-query whose last generation was dropped, once
// RetryDelay has passed. The timer's hold outlasts the send, which can
// resolve sq (a synchronous drop with no budget left).
func (c *Cluster) retry(sq *subQuery) {
	if !sq.resolved {
		c.sendAttempt(sq, 0)
	}
	sq.holds--
	c.recycleSub(sq)
}

// disarmTimers cancels the generation's pending timers, if armed.
func (c *Cluster) disarmTimers(sq *subQuery) {
	if sq.hasTimer {
		c.eng.Cancel(sq.timer)
		sq.hasTimer = false
	}
	if sq.hasHedge {
		c.eng.Cancel(sq.hedgeTimer)
		sq.hasHedge = false
	}
}

// finish closes the query once every sub-query has resolved, and returns
// it to the free list.
func (c *Cluster) finish(q *query) {
	if q.done+q.failed != q.total {
		return
	}
	lost, lat := q.failed > 0, c.eng.Now()-q.start
	q.sampler = nil
	c.freeQueries = append(c.freeQueries, q)
	if lost {
		c.stats.QueriesLost++
		return
	}
	c.stats.Queries++
	c.stats.QueryLatency.Add(lat)
	if lat > c.Cfg.ServerBudget+c.Cfg.NetworkBudget+1e-12 {
		c.stats.SLAMisses++
	}
	if c.OnQueryComplete != nil {
		c.OnQueryComplete(lat)
	}
}

// StartPoisson launches an open-loop Poisson query stream whose rate is
// polled before each arrival (rate in queries/sec; 0 pauses). It runs until
// the engine stops or until the returned stop function is called.
func (c *Cluster) StartPoisson(rate func() float64, sampler func() float64, seed int64) func() {
	stream := rng.Derive(seed, "query-arrivals")
	stopped := false
	var tick, arrive func()
	tick = func() {
		if stopped {
			return
		}
		r := rate()
		if r <= 0 {
			c.eng.After(100e-3, tick)
			return
		}
		c.eng.After(stream.Exp(1/r), arrive)
	}
	arrive = func() {
		if stopped {
			return
		}
		c.SubmitQuery(sampler)
		tick()
	}
	tick()
	return func() { stopped = true }
}

// CPUEnergyJ sums CPU energy across servers up to time t.
func (c *Cluster) CPUEnergyJ(t float64) float64 {
	s := 0.0
	for _, srv := range c.srvs {
		s += srv.CPUEnergyJ(t)
	}
	return s
}

// CPUPowerW sums average CPU power across servers over [t0,t]; t0 must be
// 0 (see server.CPUPowerW). For warmup exclusion capture CPUEnergyJ at the
// boundary and use CPUPowerWSince.
func (c *Cluster) CPUPowerW(t0, t float64) float64 {
	s := 0.0
	for _, srv := range c.srvs {
		s += srv.CPUPowerW(t0, t)
	}
	return s
}

// CPUPowerWSince returns average CPU power over [t0,t] given e0 =
// CPUEnergyJ(t0) captured when the clock read t0.
func (c *Cluster) CPUPowerWSince(e0, t0, t float64) float64 {
	if t <= t0 {
		return 0
	}
	return (c.CPUEnergyJ(t) - e0) / (t - t0)
}

// ServerPowerW adds static per-server power to the CPU total.
func (c *Cluster) ServerPowerW(t0, t float64) float64 {
	return c.CPUPowerW(t0, t) + float64(len(c.srvs))*power.ServerStaticW
}

// MissRate returns the end-to-end (query-level) SLA miss fraction over
// COMPLETED queries. Note that a query aggregates 15 parallel sub-queries,
// so its tail amplifies the per-request tail (tail-at-scale); the paper's
// §III SLA is the per-request one, reported by RequestMissRate. Under
// faults, completed-only denominators flatter the system — see
// StrictMissRate.
func (s *Stats) MissRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return float64(s.SLAMisses) / float64(s.Queries)
}

// StrictMissRate counts a lost query as an SLA miss (a user whose query
// never came back certainly missed their deadline) over the honest
// denominator of all terminated queries.
func (s *Stats) StrictMissRate() float64 {
	terminated := s.Queries + s.QueriesLost
	if terminated == 0 {
		return 0
	}
	return float64(s.SLAMisses+s.QueriesLost) / float64(terminated)
}

// LossRate returns the fraction of submitted queries that terminated
// incomplete.
func (s *Stats) LossRate() float64 {
	if s.QueriesSubmitted == 0 {
		return 0
	}
	return float64(s.QueriesLost) / float64(s.QueriesSubmitted)
}

// RequestMissRate aggregates the per-sub-query slack-deadline miss rate
// across all ISN servers — the 95th-percentile SLA the DVFS policies
// guarantee (target miss budget 5%).
func (c *Cluster) RequestMissRate() float64 {
	completed, misses := 0, 0
	for _, srv := range c.srvs {
		st := srv.Stats()
		completed += st.Completed
		misses += st.SlackMisses
	}
	if completed == 0 {
		return 0
	}
	return float64(misses) / float64(completed)
}
