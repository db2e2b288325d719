package core

import (
	"fmt"
	"math"

	"eprons/internal/consolidate"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/netmodel"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/topology"
)

// Config holds the SLA split and planning parameters shared by the planner
// and the system runner.
type Config struct {
	// ServerBudget and NetworkBudget split the SLA (paper: 25 ms + 5 ms).
	ServerBudget  float64
	NetworkBudget float64
	// RequestBudgetFrac is the request direction's share of NetworkBudget
	// when converting predicted request latency to slack (default 0.5).
	RequestBudgetFrac float64
	// KMax bounds the scale-factor search (paper eq. 3: 1 <= K <= Kmax;
	// default 6).
	KMax int
	// SafetyMarginBps per link (paper: 50 Mbps).
	SafetyMarginBps float64
	// TailQuantile of network latency used for slack planning (0.95).
	TailQuantile float64
	// MsgBytes sizes the request message for the latency model (default
	// 1500).
	MsgBytes int
	// NumServers scales the server term of objective (2) (default 16).
	NumServers int
	// NetLatencyScale calibrates the analytic latency model to a slower
	// testbed (see netmodel.Analytic.Scale). 0/1 = clean-simulator scale;
	// ≈25 matches the paper's MiniNet-measured Fig 10 magnitudes.
	NetLatencyScale float64
}

// DefaultConfig returns the paper's evaluation parameters.
func DefaultConfig() Config {
	return Config{
		ServerBudget:      25e-3,
		NetworkBudget:     5e-3,
		RequestBudgetFrac: 0.5,
		KMax:              6,
		SafetyMarginBps:   50e6,
		TailQuantile:      0.95,
		MsgBytes:          1500,
		NumServers:        16,
	}
}

func (c *Config) fill() {
	if c.RequestBudgetFrac <= 0 || c.RequestBudgetFrac > 1 {
		c.RequestBudgetFrac = 0.5
	}
	if c.KMax <= 0 {
		c.KMax = 6
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
}

// Plan is one joint operating point: a consolidation (with its scale
// factor), the predicted network tail latency and resulting slack, and the
// modeled power split.
type Plan struct {
	K             int
	Res           *consolidate.Result
	PredNetTailS  float64 // predicted request-direction tail latency
	SlackS        float64 // slack handed to servers
	NetworkPowerW float64
	ServerPowerW  float64 // total across servers, incl. static
	TotalPowerW   float64
	Feasible      bool
	// NetModelClamped reports that the analytic latency model clamped a
	// link utilization into its domain while pricing this plan — the
	// prediction is a flat extrapolation, not a validated estimate.
	NetModelClamped bool
}

// ServerModel prices the server side of a plan: the CPU power (W) needed
// to hold a tail-latency budget at a given utilization, and whether that
// budget is achievable at all. The DES-trained *ServerPowerTable satisfies
// it, and so does the closed-form twin.Model — letting the planner's inner
// loop swap a trained table for an analytic model with no other changes.
type ServerModel interface {
	Lookup(util, budget float64) (float64, bool)
}

// Planner searches K to minimize total power (the Optimizer of Fig 7).
type Planner struct {
	Cfg   Config
	FT    *fattree.FatTree
	Table ServerModel
	Net   netmodel.Analytic
	// TrainedNet, when non-nil, overrides the analytic model with
	// measured tail latencies per scale factor K (the paper's §IV-A
	// training: "we measure the average tail latency of search queries
	// for different scale factors K and use this information"). Keyed by
	// K with the worst actual link utilization of the candidate
	// consolidation as the interpolation axis.
	TrainedNet *netmodel.Trained
	// UtilFn reports the current server utilization when the planner is
	// driven by the controller (set by the system runner).
	UtilFn func() float64
	// Workers bounds the concurrency of the K-search: each candidate
	// scale factor is an independent consolidation + pricing and they run
	// fanned out over this many goroutines. <= 1 evaluates sequentially
	// (the exact pre-parallel code path); the chosen Plan is identical for
	// every value because the reduction scans candidates in K order.
	Workers int
}

// NewPlanner wires a planner.
func NewPlanner(cfg Config, ft *fattree.FatTree, table ServerModel) (*Planner, error) {
	if ft == nil {
		return nil, fmt.Errorf("core: nil fat-tree")
	}
	if table == nil {
		return nil, fmt.Errorf("core: nil server power table")
	}
	cfg.fill()
	net := netmodel.DefaultAnalytic()
	if cfg.NetLatencyScale > 0 {
		net.Scale = cfg.NetLatencyScale
	}
	return &Planner{Cfg: cfg, FT: ft, Table: table, Net: net}, nil
}

// predictTail returns the worst predicted tail latency over the
// latency-sensitive flows' paths under a consolidation result, using the
// trained table when available (k identifies the operating point) and the
// analytic model otherwise.
func (p *Planner) predictTail(k int, res *consolidate.Result, flows []flow.Flow) (pred float64, clamped bool) {
	if p.TrainedNet != nil {
		if lat, err := p.TrainedNet.Lookup(k, p.worstUtil(res)); err == nil {
			return lat, false
		}
	}
	worst := 0.0
	cap := p.FT.Cfg.LinkCapacityBps
	var utils []float64 // one buffer for every flow's hop utilizations
	for _, f := range flows {
		if f.Class != flow.LatencySensitive {
			continue
		}
		utils = res.PathUtilizationsInto(p.FT.Graph, f.ID, utils[:0])
		if len(utils) == 0 {
			continue
		}
		// cfg.fill() keeps TailQuantile in (0,1), so the only error
		// PathQuantileClamped can return cannot occur here.
		lat, c, err := p.Net.PathQuantileClamped(p.Cfg.TailQuantile, utils, cap, p.Cfg.MsgBytes)
		if err != nil {
			continue
		}
		clamped = clamped || c
		if lat > worst {
			worst = lat
		}
	}
	return worst, clamped
}

// worstUtil returns the highest actual directed-link utilization of a
// consolidation — the trained table's interpolation axis.
func (p *Planner) worstUtil(res *consolidate.Result) float64 {
	worst := 0.0
	for d := range res.ActualBps {
		if u := res.Utilization(p.FT.Graph, d); u > worst {
			worst = u
		}
	}
	return worst
}

// evaluate turns a consolidation into a Plan via the latency and power
// models. networkPowerW overrides the active-set power when a fixed
// aggregation policy defines what stays on.
func (p *Planner) evaluate(k int, res *consolidate.Result, flows []flow.Flow, util, serverBudget float64, networkPowerW float64) *Plan {
	pred, clamped := p.predictTail(k, res, flows)
	reqBudget := p.Cfg.NetworkBudget * p.Cfg.RequestBudgetFrac
	slack := reqBudget - pred
	if slack < 0 {
		slack = 0
	}
	// The reply direction must still fit: if the predicted tail exceeds
	// the whole network budget, the SLA cannot be met at this point.
	effBudget := serverBudget + slack
	if pred > p.Cfg.NetworkBudget {
		// Network eats into the server budget.
		effBudget = serverBudget - (pred - p.Cfg.NetworkBudget)
	}
	plan := &Plan{K: k, Res: res, PredNetTailS: pred, SlackS: slack, NetworkPowerW: networkPowerW, NetModelClamped: clamped}
	if effBudget <= 0 {
		return plan
	}
	cpu, ok := p.Table.Lookup(util, effBudget)
	if !ok {
		return plan
	}
	plan.ServerPowerW = float64(p.Cfg.NumServers) * (cpu + power.ServerStaticW)
	plan.TotalPowerW = plan.NetworkPowerW + plan.ServerPowerW
	plan.Feasible = true
	return plan
}

// EvaluateCandidate prices one already-computed consolidation at scale
// factor k against the default server budget — the per-K evaluation PlanK
// performs internally, exposed for tools that display the search.
func (p *Planner) EvaluateCandidate(k int, res *consolidate.Result, flows []flow.Flow, util float64) *Plan {
	return p.evaluate(k, res, flows, util, p.Cfg.ServerBudget, res.NetworkPowerW)
}

// PlanK searches K in [1, KMax] and returns the minimum-total-power
// feasible plan (paper §IV-B). util is the current server utilization.
//
// Every candidate K is an independent consolidation, so the search fans out
// over p.Workers goroutines and then reduces in ascending-K order with the
// same strict comparison the sequential loop used — the returned Plan is
// identical for any worker count, with ties broken toward the lowest K.
func (p *Planner) PlanK(flows []flow.Flow, util float64) (*Plan, error) {
	cands, err := parallel.Map(p.Cfg.KMax, p.Workers, func(i int) (*Plan, error) {
		return p.planOneK(i+1, flows, util, 0)
	})
	if err != nil {
		return nil, err
	}
	var best *Plan
	for _, plan := range cands {
		if plan == nil || !plan.Feasible {
			continue
		}
		if best == nil || plan.TotalPowerW < best.TotalPowerW-1e-9 {
			best = plan
		}
	}
	if best == nil {
		return nil, fmt.Errorf("core: no feasible plan for any K in [1,%d]", p.Cfg.KMax)
	}
	return best, nil
}

// planOneK consolidates and prices a single candidate scale factor. It
// returns (nil, nil) for an infeasible consolidation so the reduction can
// skip it, matching the sequential loop's continue. networkPowerW prices a
// fixed powered subnet; 0 prices the consolidation's own.
func (p *Planner) planOneK(k int, flows []flow.Flow, util, networkPowerW float64) (*Plan, error) {
	cfg := consolidate.Config{ScaleK: float64(k), SafetyMarginBps: p.Cfg.SafetyMarginBps}
	res, err := consolidate.Greedy(p.FT, flows, cfg)
	if err != nil {
		return nil, err
	}
	if !res.Feasible {
		return nil, nil
	}
	if networkPowerW == 0 {
		networkPowerW = res.NetworkPowerW
	}
	return p.evaluate(k, res, flows, util, p.Cfg.ServerBudget, networkPowerW), nil
}

// PlanAggregation evaluates one Fig 9 aggregation policy under a total
// latency constraint: the policy's subnet stays on, flows consolidate
// within it at K=1, and the server budget is the constraint minus the
// network budget (the Fig 13 experiment). The returned plan may be
// infeasible when the subnet cannot hold the SLA.
func (p *Planner) PlanAggregation(flows []flow.Flow, util float64, level int, totalConstraint float64) (*Plan, error) {
	restrict := p.FT.AggregationPolicy(level)
	cfg := consolidate.Config{ScaleK: 1, SafetyMarginBps: p.Cfg.SafetyMarginBps, Restrict: restrict}
	// The aggregation policy already did the consolidating; routing inside
	// the fixed subnet is load-balanced (ECMP), so the latency the level
	// pays is its concentration, exactly as Fig 10 measures it.
	res, err := consolidate.Balance(p.FT, flows, cfg)
	if err != nil {
		return nil, err
	}
	serverBudget := totalConstraint - p.Cfg.NetworkBudget
	if !res.Feasible || serverBudget <= 0 {
		return &Plan{K: 1, Res: res, NetworkPowerW: restrict.NetworkPowerW()}, nil
	}
	return p.evaluate(1, res, flows, util, serverBudget, restrict.NetworkPowerW()), nil
}

// Optimize implements controller.Optimizer: it plans with the current
// utilization (UtilFn, defaulting to 30%) and returns the consolidation.
func (p *Planner) Optimize(flows []flow.Flow) (*consolidate.Result, error) {
	util := 0.30
	if p.UtilFn != nil {
		util = p.UtilFn()
	}
	plan, err := p.PlanK(flows, util)
	if err != nil {
		return nil, err
	}
	return plan.Res, nil
}

// FullTopologyPlan evaluates the no-network-power-management operating
// point: everything on, shortest-path-style consolidation at the largest
// feasible K (maximum spreading ≈ ECMP), used for the TimeTrader and no-PM
// baselines of Fig 15.
func (p *Planner) FullTopologyPlan(flows []flow.Flow, util float64) (*Plan, error) {
	fullPower := topology.NewActiveSet(p.FT.Graph).NetworkPowerW()
	// Candidate i evaluates K = KMax-i; the reduction takes the first
	// feasible candidate in that order, i.e. the highest feasible K — the
	// same plan the sequential countdown returned.
	cands, err := parallel.Map(p.Cfg.KMax, p.Workers, func(i int) (*Plan, error) {
		return p.planOneK(p.Cfg.KMax-i, flows, util, fullPower)
	})
	if err != nil {
		return nil, err
	}
	for _, plan := range cands {
		if plan != nil && plan.Feasible {
			return plan, nil
		}
	}
	return nil, fmt.Errorf("core: full-topology plan infeasible")
}

// SavingsVsBaseline returns the fractional saving of plan against a
// baseline power.
func SavingsVsBaseline(planW, baselineW float64) float64 {
	if baselineW <= 0 {
		return 0
	}
	return math.Max(0, (baselineW-planW)/baselineW)
}
