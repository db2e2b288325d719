// Package cluster simulates the paper's partition-aggregate web-search
// application (§V-A): each user query arrives at an aggregator host, which
// broadcasts sub-queries to every other host (the Index Serving Nodes);
// each ISN processes its sub-query on a DVFS-managed server and returns a
// reply; the query completes when the last reply reaches the aggregator.
//
// The per-request latency monitor of the EPRONS framework lives here: the
// measured network latency of each sub-query request is turned into slack
// ("we only use the request slack", §IV-C) and added to the sub-query's
// compute deadline before it enters the server.
package cluster

import (
	"fmt"

	"eprons/internal/dist"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
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
	// SubQueryBytes and ReplyBytes size the two message types
	// (defaults 1500 and 6000).
	SubQueryBytes int
	ReplyBytes    int
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
	// query touches one replica per partition instead of every host. 0
	// (the default) keeps the legacy broadcast fan-out bit-identical —
	// none of the replica machinery runs. See replica.go.
	Replicas int
	// Partitions is the number of data partitions (default len(hosts)-1,
	// matching the broadcast fan-out's sub-query count per query). Only
	// meaningful with Replicas > 0.
	Partitions int
	// HostPods maps host index → failure domain (pod) for replica
	// spreading: no two replicas of a partition share a pod when Replicas
	// ≤ distinct pods. Nil treats all hosts as one domain.
	HostPods []int
	// Selection picks which replica serves each sub-query (SelPrimary,
	// SelPowerOfTwo, SelHedged). Only meaningful with Replicas > 0.
	Selection SelectionPolicy
	// HedgeDelayS overrides the hedge-trigger delay for SelHedged; 0 (the
	// default) tracks the p95 of resolved sub-query round trips.
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
		SubQueryBytes:     1500,
		ReplyBytes:        6000,
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
	if c.SubQueryBytes <= 0 {
		c.SubQueryBytes = 1500
	}
	if c.ReplyBytes <= 0 {
		c.ReplyBytes = 6000
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

// Stats aggregates query-level results. The accounting identity (the
// conservation identity the audit mode asserts) is
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
	NetReplyLat  metrics.Tracker // per-sub-query reply network latency
	ServerLat    metrics.Tracker // per-sub-query server time (queue + service)
	SlackGranted metrics.Tracker // per-sub-query slack handed to the server
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
	// Replicated-mode counters (Config.Replicas > 0; all zero otherwise).
	// SubAttempts counts every attempt transmitted (originals, failovers,
	// retries and hedges), the denominator of the hedge extra-work cost.
	SubAttempts int
	// Failovers counts re-sends redirected to a DIFFERENT replica after a
	// drop or timeout — spent before the query's shared RetryBudget.
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

// BreakdownMeans returns the mean per-sub-query latency decomposition
// (request network, server, reply network) — where each millisecond of a
// query's life went.
func (s *Stats) BreakdownMeans() (reqS, serverS, replyS float64) {
	return s.NetReqLat.Mean(), s.ServerLat.Mean(), s.NetReplyLat.Mean()
}

// Cluster wires hosts, servers and the network.
type Cluster struct {
	Cfg      Config
	eng      *sim.Engine
	net      *netsim.Network
	hosts    []topology.NodeID
	srvs     []*server.Server
	pendings []pendingMap
	stats    Stats

	agg    *rng.Stream
	nextID int64

	// repl carries the replicated-mode state (see replica.go); nil with
	// Replicas == 0, which keeps the broadcast path untouched.
	repl *replicaState

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
		c.srvs = append(c.srvs, srv)
		c.pendings = append(c.pendings, nil)
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
	return perPair * float64(c.Cfg.SubQueryBytes+c.Cfg.ReplyBytes) * 8
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

// StatsInto snapshots the aggregate query statistics into out and returns
// it (a nil out allocates one). The counters copy by value and each
// latency tracker copies via metrics.Tracker.CopyInto, reusing out's
// sample buffers — a periodic poller that snapshots into a retained Stats
// allocates nothing once the buffers reach their high-water mark. Unlike
// the pointer Stats() returns, the snapshot is decoupled from the live
// accounting, so a monitor can quantile-query it while the simulation
// keeps adding samples.
func (c *Cluster) StatsInto(out *Stats) *Stats {
	if out == nil {
		out = &Stats{}
	}
	s := &c.stats
	// Copy the trackers buffer-reusingly first, then overwrite every
	// scalar field by value.
	s.QueryLatency.CopyInto(&out.QueryLatency)
	s.NetReqLat.CopyInto(&out.NetReqLat)
	s.NetReplyLat.CopyInto(&out.NetReplyLat)
	s.ServerLat.CopyInto(&out.ServerLat)
	s.SlackGranted.CopyInto(&out.SlackGranted)
	out.QueriesSubmitted = s.QueriesSubmitted
	out.Queries = s.Queries
	out.SLAMisses = s.SLAMisses
	out.QueriesLost = s.QueriesLost
	out.DroppedSub = s.DroppedSub
	out.Retries = s.Retries
	out.Timeouts = s.Timeouts
	out.QueriesShed = s.QueriesShed
	out.RejectedSub = s.RejectedSub
	out.ShedTransitions = s.ShedTransitions
	out.SubAttempts = s.SubAttempts
	out.Failovers = s.Failovers
	out.Hedges = s.Hedges
	out.HedgeWins = s.HedgeWins
	out.HedgeWasted = s.HedgeWasted
	return out
}

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
// the way a dropped sub-query used to.
type query struct {
	start  float64
	total  int
	done   int // sub-queries answered
	failed int // sub-queries permanently failed
	budget int // remaining retry budget (shared across the sub-queries)
}

// subQuery tracks one ISN's sub-query across retry attempts. gen is the
// attempt generation: callbacks carry the generation they were armed with,
// and stale callbacks (a late reply racing a timeout-triggered retry, a
// drop notification for an abandoned attempt) are ignored.
type subQuery struct {
	q        *query
	aggIdx   int
	isn      int
	base     float64
	gen      int
	resolved bool
	timer    sim.EventID
	hasTimer bool
}

// SubmitQuery runs one partition-aggregate query starting now: a random
// aggregator broadcasts to every other host; sampler provides each
// sub-query's base service time. A sub-query whose request or reply is
// dropped — or, with SubQueryTimeout set, whose reply is late — is retried
// while the query's RetryBudget lasts, then marks the query lost.
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
	if c.repl != nil {
		c.submitReplicated(aggIdx, sampler)
		return
	}
	q := &query{
		start:  c.eng.Now(),
		total:  len(c.hosts) - 1,
		budget: c.Cfg.RetryBudget,
	}
	for isn := range c.hosts {
		if isn == aggIdx {
			continue
		}
		sq := &subQuery{q: q, aggIdx: aggIdx, isn: isn, base: sampler()}
		c.sendAttempt(sq)
	}
}

// sendAttempt transmits the current attempt of sq and arms its timeout.
func (c *Cluster) sendAttempt(sq *subQuery) {
	gen := sq.gen
	if c.Cfg.SubQueryTimeout > 0 {
		sq.timer = c.eng.After(c.Cfg.SubQueryTimeout, func() { c.onTimeout(sq, gen) })
		sq.hasTimer = true
	}
	c.net.SendMessage(c.FlowID(sq.aggIdx, sq.isn), c.Cfg.SubQueryBytes,
		func(netLat float64) { c.onRequestArrived(sq, gen, netLat) },
		func() { c.onDrop(sq, gen) })
}

// onRequestArrived turns a delivered sub-query request into a server
// request with the measured network slack (paper §IV-C).
func (c *Cluster) onRequestArrived(sq *subQuery, gen int, netLat float64) {
	if sq.resolved || gen != sq.gen {
		return // attempt abandoned while the request was in flight
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
		BaseServiceS:   sq.base,
		ServerDeadline: now + c.Cfg.ServerBudget,
		SlackDeadline:  now + c.Cfg.ServerBudget + slack,
	}
	c.enqueueWithReply(sq, gen, req)
}

// onReplyArrived resolves a sub-query whose reply made it back.
func (c *Cluster) onReplyArrived(sq *subQuery, gen int, replyLat float64) {
	if sq.resolved || gen != sq.gen {
		return // a retry already superseded this attempt
	}
	sq.resolved = true
	c.disarmTimer(sq)
	c.stats.NetReplyLat.Add(replyLat)
	sq.q.done++
	c.maybeFinish(sq)
}

// onDrop handles the simulator's message-level drop notification for
// either direction of an attempt.
func (c *Cluster) onDrop(sq *subQuery, gen int) {
	c.stats.DroppedSub++
	if sq.resolved || gen != sq.gen {
		return // drop of an already-abandoned attempt
	}
	c.failAttempt(sq, false)
}

// onTimeout fires when an attempt's reply is late.
func (c *Cluster) onTimeout(sq *subQuery, gen int) {
	if sq.resolved || gen != sq.gen {
		return
	}
	sq.hasTimer = false
	c.stats.Timeouts++
	c.failAttempt(sq, true)
}

// failAttempt retries the sub-query if budget remains, else resolves it as
// failed. Timeout-triggered retries re-send immediately; drop-triggered
// retries wait RetryDelay so route repair can land first.
func (c *Cluster) failAttempt(sq *subQuery, fromTimeout bool) {
	c.disarmTimer(sq)
	sq.gen++ // late callbacks from the dead attempt become stale
	if sq.q.budget > 0 {
		sq.q.budget--
		c.stats.Retries++
		if fromTimeout {
			c.sendAttempt(sq)
		} else {
			c.eng.After(c.Cfg.RetryDelay, func() {
				if !sq.resolved {
					c.sendAttempt(sq)
				}
			})
		}
		return
	}
	sq.resolved = true
	sq.q.failed++
	c.maybeFinish(sq)
}

// disarmTimer cancels a pending retry timer, if armed.
func (c *Cluster) disarmTimer(sq *subQuery) {
	if sq.hasTimer {
		c.eng.Cancel(sq.timer)
		sq.hasTimer = false
	}
}

// maybeFinish closes the query once every sub-query has resolved.
func (c *Cluster) maybeFinish(sq *subQuery) {
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

// pending tracks reply callbacks per request ID for each ISN server.
type pendingMap map[int64]func()

// enqueueWithReply registers the reply send on completion of this request.
// The ISN suppresses the reply for attempts the aggregator has already
// abandoned (the server work is wasted, as it would be in a real cluster).
func (c *Cluster) enqueueWithReply(sq *subQuery, gen int, req *server.Request) {
	isn := sq.isn
	srv := c.srvs[isn]
	if srv.OnComplete == nil {
		pend := pendingMap{}
		c.pendings[isn] = pend
		srv.OnComplete = func(r *server.Request, finish float64) {
			if cb, ok := pend[r.ID]; ok {
				delete(pend, r.ID)
				cb()
			}
		}
	}
	arrival := req.Arrival
	c.pendings[isn][req.ID] = func() {
		if sq.resolved || gen != sq.gen {
			return // abandoned while queued or in service
		}
		c.stats.ServerLat.Add(c.eng.Now() - arrival)
		c.net.SendMessage(c.FlowID(isn, sq.aggIdx), c.Cfg.ReplyBytes,
			func(replyLat float64) { c.onReplyArrived(sq, gen, replyLat) },
			func() { c.onDrop(sq, gen) })
	}
	if c.Cfg.AdmissionControl {
		// Bounded ISN queue: a sub-query that slipped past the aggregator
		// while pressure rose is refused here rather than growing the
		// queue past the watermark; the refusal follows the retry path so
		// the query still terminates (retried or lost, never orphaned).
		if !srv.TryEnqueue(req) {
			delete(c.pendings[isn], req.ID)
			c.stats.RejectedSub++
			c.failAttempt(sq, false)
		}
		return
	}
	srv.Enqueue(req)
}

// StartPoisson launches an open-loop Poisson query stream whose rate is
// polled before each arrival (rate in queries/sec; 0 pauses). It runs until
// the engine stops or until the returned stop function is called.
func (c *Cluster) StartPoisson(rate func() float64, sampler func() float64, seed int64) func() {
	stream := rng.Derive(seed, "query-arrivals")
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		r := rate()
		if r <= 0 {
			c.eng.After(100e-3, tick)
			return
		}
		c.eng.After(stream.Exp(1/r), func() {
			if stopped {
				return
			}
			c.SubmitQuery(sampler)
			tick()
		})
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

// RequestP95 returns the 95th-percentile per-sub-query server latency
// pooled across ISNs (approximated by the max of per-server p95s to avoid
// merging trackers).
func (c *Cluster) RequestP95() float64 {
	worst := 0.0
	for _, srv := range c.srvs {
		if q := srv.Stats().ServerLatency.Quantile(0.95); q > worst {
			worst = q
		}
	}
	return worst
}
