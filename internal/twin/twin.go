// Package twin is the closed-form whole-DC analytic model — the "digital
// twin" of the ROADMAP. It composes the repo's validated closed forms into
// a pure function of (scale factor K or aggregation depth, consolidation,
// offered load) → (tail-latency estimate, joint power), with no event loop:
//
//   - server side: M/G/c queueing via the Erlang-C wait probability and the
//     Lee–Longton variance correction (internal/queueing), with the
//     deadline-violation probability of eq. (1) integrated exactly over the
//     DVFS-stretched service lattice (internal/dist) against the
//     exponential waiting-time mixture — a closed form per frequency;
//   - network side: per-link M/M/1 latency (internal/netmodel) over the
//     k-ary fat-tree's closed-form tier utilizations under the Fig 9
//     aggregation policies or a Fig 11 scale-factor-K consolidation.
//
// A Model answers what-if capacity queries for 100k-host fabrics in
// milliseconds (no topology graph is ever built — only arithmetic on the
// fat-tree geometry), and implements core.ServerModel so the planner's
// K-search inner loop can run from the closed form instead of a DES-trained
// table. Every estimate carries a Clamped flag: true when a link
// utilization fell outside the latency model's validated domain
// (netmodel.UtilClampThreshold), i.e. the twin is extrapolating and its
// pinned error bands (see experiments.TwinCheck) do not apply.
package twin

import (
	"fmt"
	"math"
	"sync"

	"eprons/internal/dist"
	"eprons/internal/netmodel"
	"eprons/internal/power"
	"eprons/internal/queueing"
	"eprons/internal/server"
	"eprons/internal/workload"
)

// Config parameterizes the twin. The zero value is filled with the paper's
// evaluation parameters (the same defaults as core.DefaultConfig and the
// Fig 10/13 experiments).
type Config struct {
	// FabricK is the fat-tree arity (even, >= 4; default 4). Hosts scale
	// as k³/4: k=74 is a 101,306-host fabric.
	FabricK int
	// LinkCapacityBps is the homogeneous link speed (default 1 Gbps).
	LinkCapacityBps float64
	// SwitchPowerW per active switch (default power.SwitchActiveW).
	SwitchPowerW float64
	// SafetyMarginBps is subtracted from link capacity when sizing the
	// scale-factor-K core keep-set (default 50 Mbps).
	SafetyMarginBps float64
	// QueryReserveBps is the per-host-pair burst reservation the K-mode
	// sizing uses, matching experiments.NetLatencyConfig (default 10 Mbps).
	QueryReserveBps float64
	// Net is the per-link latency model (default netmodel.DefaultAnalytic;
	// set Net.Scale ≈ 25 for the paper's MiniNet-calibrated magnitudes).
	Net netmodel.Analytic
	// Service is the base per-request service-time distribution at fmax
	// (default workload.ServiceDist(workload.DefaultServiceConfig())).
	Service *dist.Discrete
	// Alpha is the DVFS stretch exponent fraction (default 0.9) and
	// FMaxGHz the top frequency (default power.FMaxGHz).
	Alpha   float64
	FMaxGHz float64
	// CoresPerServer (default power.CoresPerServer).
	CoresPerServer int
	// TargetVP is the per-request deadline-violation target (default 0.05).
	TargetVP float64
	// ServerBudget/NetworkBudget split the SLA (default 25 ms + 5 ms);
	// RequestBudgetFrac is the request direction's share of NetworkBudget
	// (default 0.5); TailQuantile prices the network tail (default 0.95);
	// MsgBytes sizes the request message (default 1500); NumServers scales
	// the server power term (default 16) — all as in core.Config.
	ServerBudget      float64
	NetworkBudget     float64
	RequestBudgetFrac float64
	TailQuantile      float64
	MsgBytes          int
	NumServers        int
}

func (c *Config) fill() error {
	if c.FabricK == 0 {
		c.FabricK = 4
	}
	if c.FabricK < 4 || c.FabricK%2 != 0 {
		return fmt.Errorf("twin: fabric arity %d must be even and >= 4", c.FabricK)
	}
	if c.LinkCapacityBps <= 0 {
		c.LinkCapacityBps = 1e9
	}
	if c.SwitchPowerW <= 0 {
		c.SwitchPowerW = power.SwitchActiveW
	}
	if c.SafetyMarginBps < 0 || c.SafetyMarginBps >= c.LinkCapacityBps {
		return fmt.Errorf("twin: safety margin %g out of [0, capacity)", c.SafetyMarginBps)
	}
	if c.SafetyMarginBps == 0 {
		c.SafetyMarginBps = 50e6
	}
	if c.QueryReserveBps <= 0 {
		c.QueryReserveBps = 10e6
	}
	if c.Net.PacketBytes == 0 {
		c.Net = netmodel.DefaultAnalytic()
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.9
	}
	if c.FMaxGHz <= 0 {
		c.FMaxGHz = power.FMaxGHz
	}
	if c.CoresPerServer <= 0 {
		c.CoresPerServer = power.CoresPerServer
	}
	if c.TargetVP <= 0 || c.TargetVP >= 1 {
		c.TargetVP = 0.05
	}
	if c.ServerBudget <= 0 {
		c.ServerBudget = 25e-3
	}
	if c.NetworkBudget <= 0 {
		c.NetworkBudget = 5e-3
	}
	if c.RequestBudgetFrac <= 0 || c.RequestBudgetFrac > 1 {
		c.RequestBudgetFrac = 0.5
	}
	if c.TailQuantile <= 0 || c.TailQuantile >= 1 {
		c.TailQuantile = 0.95
	}
	if c.MsgBytes <= 0 {
		c.MsgBytes = 1500
	}
	if c.NumServers <= 0 {
		c.NumServers = 16
	}
	return nil
}

// Model is the compiled twin: per-frequency DVFS-stretched service
// distributions are compiled on first use and cached, so a what-if query
// is pure arithmetic plus one lattice integration per frequency probe.
type Model struct {
	cfg   Config
	freqs []float64
	// stretched[i] is Service scaled by the stretch at freqs[i]; meanS and
	// scv describe each stretched distribution. Entries are compiled
	// lazily — a server evaluation's binary search touches O(log) of the
	// frequency grid, and planner inner loops care about every
	// microsecond of model construction.
	stretchOnce []sync.Once
	stretched   []*dist.Discrete
	meanS       []float64
	scv         []float64
	// rhoMax keeps the M/G/c forms off the unstable boundary.
	rhoMax float64
}

// New compiles a twin model.
func New(cfg Config) (*Model, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if cfg.Service == nil {
		d, err := workload.ServiceDist(workload.DefaultServiceConfig())
		if err != nil {
			return nil, err
		}
		cfg.Service = d
	}
	if cfg.Service.Mean() <= 0 {
		return nil, fmt.Errorf("twin: degenerate service distribution")
	}
	m := &Model{cfg: cfg, freqs: power.FreqGrid(), rhoMax: 0.995}
	m.stretchOnce = make([]sync.Once, len(m.freqs))
	m.stretched = make([]*dist.Discrete, len(m.freqs))
	m.meanS = make([]float64, len(m.freqs))
	m.scv = make([]float64, len(m.freqs))
	return m, nil
}

// dist compiles (once, concurrency-safe) and returns the service
// distribution stretched to the grid frequency at index i, filling meanS
// and scv alongside. Callers must read meanS/scv only after this returns.
func (m *Model) dist(i int) *dist.Discrete {
	m.stretchOnce[i].Do(func() {
		s := server.Stretch(m.cfg.Alpha, m.cfg.FMaxGHz, m.freqs[i])
		d := m.cfg.Service.Scale(s)
		mean := d.Mean()
		m.stretched[i] = d
		m.meanS[i] = mean
		m.scv[i] = d.Var() / (mean * mean)
	})
	return m.stretched[i]
}

// Config returns the filled configuration the model was compiled with.
func (m *Model) Config() Config { return m.cfg }

// Hosts returns the fabric's host count (k³/4).
func (m *Model) Hosts() int {
	k := m.cfg.FabricK
	return k * k * k / 4
}

// NumAggregationLevels mirrors fattree.NumAggregationPolicies: one level
// per core switch, (k/2)².
func (m *Model) NumAggregationLevels() int {
	h := m.cfg.FabricK / 2
	return h * h
}

// Query is one what-if operating point.
type Query struct {
	// AggLevel selects a Fig 9 aggregation policy (0 = everything on).
	// Negative means "no fixed policy": the core keep-set is sized from
	// ScaleK instead (the Fig 11 consolidation mode).
	AggLevel int
	// ScaleK is the bandwidth scale factor K >= 1 applied to
	// latency-sensitive reservations when AggLevel < 0.
	ScaleK float64
	// BgUtil is the per-elephant background demand as a fraction of link
	// capacity (all ordered pod pairs, as in Fig 10/11/13).
	BgUtil float64
	// ServerUtil is the offered server utilization at fmax.
	ServerUtil float64
	// QueryRate is the cluster-wide query rate in queries/s used for the
	// K-mode reservation sizing (default 40, the Fig 11 rate).
	QueryRate float64
	// TotalConstraintS, when positive, replaces the default SLA split with
	// a total constraint: the server budget becomes the constraint minus
	// the network budget (the Fig 13 sweep).
	TotalConstraintS float64
}

// Estimate is the twin's answer: the closed-form latency and power
// breakdown plus the domain flags the error bands depend on.
type Estimate struct {
	// Network side.
	NetMeanS       float64 // mean request network latency
	NetTailS       float64 // TailQuantile (default p95) request latency
	NetP99S        float64
	WorstHopUtil   float64
	ActiveSwitches int
	NetworkPowerW  float64
	// Server side.
	FreqGHz      float64 // lowest feasible DVFS frequency
	VP           float64 // deadline-violation probability at that frequency
	SlackS       float64 // network slack handed to the servers
	ServerPowerW float64 // total across NumServers, incl. static
	TotalPowerW  float64
	Feasible     bool
	// Clamped reports that at least one link utilization was clamped into
	// the latency model's validated domain — the estimate is a flat
	// extrapolation and the TwinCheck error bands do not cover it.
	Clamped bool
}

// netPoint is the closed-form network geometry at an operating point.
type netPoint struct {
	utils          []float64 // 6-hop cross-pod path, up then down
	worst          float64
	activeSwitches int
}

// keepFromLevel returns the number of live core switches under aggregation
// level j (clamped like fattree.AggregationPolicy).
func (m *Model) keepFromLevel(j int) int {
	cores := m.NumAggregationLevels()
	if j < 0 {
		j = 0
	}
	if j > cores-1 {
		j = cores - 1
	}
	return cores - j
}

// keepFromScaleK sizes the core keep-set for consolidation at scale factor
// K: per pod, the reserved uplink demand is the (k−1) background elephants
// plus K× the per-pair query burst reservations leaving the pod, and each
// live core uplink offers (capacity − safety margin).
func (m *Model) keepFromScaleK(scaleK, bg, queryRate float64) int {
	k := float64(m.cfg.FabricK)
	if scaleK < 1 {
		scaleK = 1
	}
	cap := m.cfg.LinkCapacityBps - m.cfg.SafetyMarginBps
	hosts := float64(m.Hosts())
	hostsPerPod := hosts / k
	// Per-pair burst reservation: the measured mean demand or the floor,
	// whichever is larger (experiments.measureNetwork's rule).
	perPair := queryRate / hosts * float64(1500+6000) * 8
	if perPair < m.cfg.QueryReserveBps {
		perPair = m.cfg.QueryReserveBps
	}
	crossPairs := hostsPerPod * (hosts - hostsPerPod)
	reserved := (k-1)*bg*m.cfg.LinkCapacityBps + scaleK*perPair*crossPairs
	keep := int(math.Ceil(reserved / cap))
	if keep < 1 {
		keep = 1
	}
	if cores := m.NumAggregationLevels(); keep > cores {
		keep = cores
	}
	return keep
}

// network computes the closed-form tier utilizations of the worst-case
// cross-pod query path and the live switch count for a keep-set of core
// switches. Traffic model: one background elephant per ordered pod pair at
// bg × capacity (the Fig 10/11/13 demand set), ECMP-balanced over the live
// uplinks; query traffic itself is negligible against the elephants
// (tens of Mbps cluster-wide on Gbps links) and is not added to the
// utilizations.
func (m *Model) network(keep int, bg float64) netPoint {
	k := m.cfg.FabricK
	half := k / 2
	aliveGroups := (keep + half - 1) / half // ceil: groups with any live core
	// Up traffic leaving each pod: (k−1) elephants at bg·C from distinct
	// source hosts, spread over the pod's half edge switches, each ECMP
	// balancing over its live agg uplinks; the agg tier funnels the same
	// total through keep live core uplinks.
	uAccess := bg
	uEdgeAgg := float64(k-1) * bg / float64(half*aliveGroups)
	uAggCore := float64(k-1) * bg / float64(keep)
	utils := []float64{uAccess, uEdgeAgg, uAggCore, uAggCore, uEdgeAgg, uAccess}
	worst := 0.0
	for _, u := range utils {
		if u > worst {
			worst = u
		}
	}
	active := k*half + k*aliveGroups + keep // edges + live aggs + live cores
	return netPoint{utils: utils, worst: worst, activeSwitches: active}
}

// WhatIf answers one capacity query in closed form.
func (m *Model) WhatIf(q Query) (*Estimate, error) {
	if q.BgUtil < 0 {
		return nil, fmt.Errorf("twin: negative background utilization %g", q.BgUtil)
	}
	if q.ServerUtil < 0 {
		return nil, fmt.Errorf("twin: negative server utilization %g", q.ServerUtil)
	}
	if q.QueryRate <= 0 {
		q.QueryRate = 40
	}
	keep := 0
	if q.AggLevel >= 0 {
		keep = m.keepFromLevel(q.AggLevel)
	} else {
		keep = m.keepFromScaleK(q.ScaleK, q.BgUtil, q.QueryRate)
	}
	np := m.network(keep, q.BgUtil)
	cap := m.cfg.LinkCapacityBps
	mean, meanClamped := m.cfg.Net.PathMeanClamped(np.utils, cap, m.cfg.MsgBytes)
	tail, tailClamped, err := m.cfg.Net.PathQuantileClamped(m.cfg.TailQuantile, np.utils, cap, m.cfg.MsgBytes)
	if err != nil {
		return nil, err
	}
	p99, _, err := m.cfg.Net.PathQuantileClamped(0.99, np.utils, cap, m.cfg.MsgBytes)
	if err != nil {
		return nil, err
	}
	est := &Estimate{
		NetMeanS:       mean,
		NetTailS:       tail,
		NetP99S:        p99,
		WorstHopUtil:   np.worst,
		ActiveSwitches: np.activeSwitches,
		NetworkPowerW:  float64(np.activeSwitches) * m.cfg.SwitchPowerW,
		Clamped:        meanClamped || tailClamped,
	}

	// Slack conversion, mirroring core.Planner.evaluate: the request
	// direction's unused budget is handed to the servers; a tail past the
	// whole network budget eats into the server budget.
	serverBudget := m.cfg.ServerBudget
	if q.TotalConstraintS > 0 {
		serverBudget = q.TotalConstraintS - m.cfg.NetworkBudget
		if serverBudget <= 0 {
			return est, nil
		}
	}
	reqBudget := m.cfg.NetworkBudget * m.cfg.RequestBudgetFrac
	slack := reqBudget - tail
	if slack < 0 {
		slack = 0
	}
	est.SlackS = slack
	effBudget := serverBudget + slack
	if tail > m.cfg.NetworkBudget {
		effBudget = serverBudget - (tail - m.cfg.NetworkBudget)
	}
	if effBudget <= 0 {
		return est, nil
	}
	freq, vp, cpuW, ok := m.serverEval(q.ServerUtil, effBudget)
	if !ok {
		return est, nil
	}
	est.FreqGHz = freq
	est.VP = vp
	est.ServerPowerW = float64(m.cfg.NumServers) * (cpuW + power.ServerStaticW)
	est.TotalPowerW = est.NetworkPowerW + est.ServerPowerW
	est.Feasible = true
	return est, nil
}

// Lookup implements core.ServerModel: the per-server CPU power needed to
// hold a tail budget at a server utilization, closed-form. Plugging a
// *Model into core.NewPlanner replaces the DES-trained ServerPowerTable
// with this — no training runs.
func (m *Model) Lookup(util, budget float64) (float64, bool) {
	_, _, cpuW, ok := m.serverEval(util, budget)
	return cpuW, ok
}

// serverEval finds the lowest DVFS frequency whose closed-form sojourn
// distribution meets the VP target within the budget, and prices it.
//
// Per frequency f with stretch s: each of the c cores is busy a fraction
// ρ = util·s. The server is an M/G/c station: P(wait) is Erlang-C at
// offered load a = λ·E[S_f]; the conditional wait is modeled exponential
// with the M/M/c rate (cμ−λ) corrected by the Lee–Longton factor
// 2/(1+scv) so its mean matches queueing.MGcMeanWait. That mixture is
// discretized onto the service lattice and convolved with the stretched
// service distribution — the sojourn distribution whose CCDF at the
// budget is the deadline-violation probability of eq. (1).
func (m *Model) serverEval(util, budget float64) (freqGHz, vp, cpuW float64, ok bool) {
	if budget <= 0 || util < 0 {
		return 0, 0, 0, false
	}
	c := m.cfg.CoresPerServer
	if util == 0 {
		// Empty system: lowest frequency, all cores idle.
		return m.freqs[0], 0, float64(c) * power.CoreIdleW, true
	}
	// Offered arrival rate at fmax capacity util (server.RateForUtilization).
	lambda := util * float64(c) / m.cfg.Service.Mean()
	// VP is monotone non-increasing in f (less stretch, faster service):
	// binary search the grid for the lowest feasible frequency.
	lo, hi := 0, len(m.freqs)-1
	feasIdx := -1
	var feasVP float64
	for lo <= hi {
		mid := (lo + hi) / 2
		v, fine := m.vpAt(mid, lambda, budget)
		if fine && v <= m.cfg.TargetVP {
			feasIdx, feasVP = mid, v
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if feasIdx < 0 {
		return 0, 0, 0, false
	}
	f := m.freqs[feasIdx]
	rho := lambda * m.meanS[feasIdx] / float64(c)
	cpuW = float64(c) * (rho*power.CoreActiveW(f) + (1-rho)*power.CoreIdleW)
	// Two-speed mixing: a DVFS policy is not pinned to grid points — it
	// can dwell between the lowest feasible frequency and the next one
	// down, meeting the VP target exactly on average (the per-request
	// EPRONS-Server policy does this implicitly). The mixture makes power
	// a continuous, strictly decreasing function of the budget, which is
	// what lets the planner's K search trade switch power against slack
	// at sub-watt resolution instead of seeing a step function.
	if feasIdx > 0 && feasVP < m.cfg.TargetVP {
		if vLow, fine := m.vpAt(feasIdx-1, lambda, budget); fine && vLow > m.cfg.TargetVP {
			theta := (m.cfg.TargetVP - feasVP) / (vLow - feasVP)
			fLow := m.freqs[feasIdx-1]
			rhoLow := lambda * m.meanS[feasIdx-1] / float64(c)
			wLow := float64(c) * (rhoLow*power.CoreActiveW(fLow) + (1-rhoLow)*power.CoreIdleW)
			cpuW = (1-theta)*cpuW + theta*wLow
			f = (1-theta)*f + theta*fLow
			feasVP = m.cfg.TargetVP
		}
	}
	return f, feasVP, cpuW, true
}

// vpAt returns the deadline-violation probability at frequency index i, or
// ok=false when the station is unstable there.
func (m *Model) vpAt(i int, lambda, budget float64) (float64, bool) {
	c := m.cfg.CoresPerServer
	d := m.dist(i)
	meanS := m.meanS[i]
	a := lambda * meanS
	if a >= float64(c)*m.rhoMax {
		return 0, false
	}
	pw, err := queueing.ErlangC(c, a)
	if err != nil {
		return 0, false
	}
	// Conditional-wait exponential rate with the Lee–Longton correction.
	rate := (float64(c)/meanS - lambda) * 2 / (1 + m.scv[i])
	// P(W + S > budget) with W ~ (1−pw)·δ₀ + pw·Exp(rate), integrated
	// exactly over the service lattice:
	//   vp = P(S > budget) + Σ_{sⱼ ≤ budget} P[j]·pw·e^{−rate·(budget−sⱼ)}
	// — no convolution, and no re-binning error on the exponential.
	vp := d.CCDF(budget)
	lim := int(math.Floor(budget/d.Step + 1e-9))
	if lim >= len(d.P) {
		lim = len(d.P) - 1
	}
	for j := 0; j <= lim; j++ {
		if p := d.P[j]; p > 0 {
			vp += p * pw * math.Exp(-rate*(budget-float64(j)*d.Step))
		}
	}
	return vp, true
}

// BestK sweeps K in [1, kMax] and returns the minimum-total-power feasible
// scale factor (the planner's K-search, closed-form; ties break low).
func (m *Model) BestK(kMax int, bg, util float64) (int, *Estimate, bool) {
	if kMax < 1 {
		kMax = 1
	}
	bestK, found := 0, false
	var best *Estimate
	for k := 1; k <= kMax; k++ {
		est, err := m.WhatIf(Query{AggLevel: -1, ScaleK: float64(k), BgUtil: bg, ServerUtil: util})
		if err != nil || !est.Feasible {
			continue
		}
		if !found || est.TotalPowerW < best.TotalPowerW-1e-9 {
			bestK, best, found = k, est, true
		}
	}
	return bestK, best, found
}
