// Package controller implements the centralized SDN controller of the
// EPRONS framework (paper §IV-C, §V-A): it pulls flow statistics from the
// network every StatsPeriod (2 s in the paper, via OpenFlow messages from
// POX), predicts next-epoch demands with the 90th-percentile rule, runs the
// optimizer every OptimizePeriod (10 min), and applies the result — new
// forwarding rules plus powering idle switches off — with an optional
// make-before-break transition window that models the measured 72.5 s
// switch power-on time.
package controller

import (
	"fmt"

	"eprons/internal/consolidate"
	"eprons/internal/flow"
	"eprons/internal/netsim"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// Optimizer computes a consolidation for predicted flows. The EPRONS
// planner (internal/core) implements it; tests can plug in fixed policies.
type Optimizer interface {
	Optimize(flows []flow.Flow) (*consolidate.Result, error)
}

// OptimizerFunc adapts a function to the Optimizer interface.
type OptimizerFunc func(flows []flow.Flow) (*consolidate.Result, error)

// Optimize implements Optimizer.
func (f OptimizerFunc) Optimize(flows []flow.Flow) (*consolidate.Result, error) {
	return f(flows)
}

// Config tunes the control loops.
type Config struct {
	// StatsPeriod is the flow-counter polling interval (paper: 2 s).
	StatsPeriod float64
	// OptimizePeriod is the re-optimization interval (paper: 600 s).
	OptimizePeriod float64
	// PredictionQuantile for next-epoch demand (paper: 0.90).
	PredictionQuantile float64
	// TransitionDelay models switch power-on time: the old and new active
	// sets stay jointly powered for this long before the old elements
	// turn off (make-before-break; 0 applies instantly).
	TransitionDelay float64
}

// DefaultConfig returns the paper's periods with instant transitions (the
// paper uses software switches and ignores the transition overhead in its
// main results).
func DefaultConfig() Config {
	return Config{StatsPeriod: 2, OptimizePeriod: 600, PredictionQuantile: 0.90}
}

// Controller drives the stats/optimize/apply loop.
type Controller struct {
	Cfg       Config
	eng       *sim.Engine
	net       *netsim.Network
	opt       Optimizer
	predictor *flow.Predictor
	flows     []flow.Flow

	// Applied counts successful re-optimizations; Failures counts
	// infeasible or errored rounds (the previous configuration stays).
	Applied  int
	Failures int
	// RepairedRoutes counts flows re-routed by RepairRoutes;
	// FailedRepairs counts flows it could not restore (a true partition:
	// every surviving path to the destination is down). Emergencies
	// counts the times repair had to fall back to powering the whole
	// healthy fabric back on.
	RepairedRoutes int
	FailedRepairs  int
	Emergencies    int
	// SurgeExpansions counts surge-triggered full-fabric re-expansions;
	// SurgeReconsolidations counts the optimizer rounds that shrank the
	// fabric back after a surge calmed (see StartSurgeResponse).
	SurgeExpansions       int
	SurgeReconsolidations int
	// StrandedRejects counts optimizer results vetoed by the replica
	// guard (see SetReplicaGuard); the previous configuration stays, like
	// any other failed round.
	StrandedRejects int
	// LastResult is the most recent applied consolidation.
	LastResult *consolidate.Result
	running    bool
	// replicaParts, when non-nil, holds each partition's replica hosts;
	// optimizeOnce audits every candidate active set against it.
	replicaParts [][]topology.NodeID
	// ratesScratch is the reused flow-rate map for the 2 s stats pull:
	// FlowRatesInto refills it in place, so the epoch loop stops
	// allocating a fresh map (plus one entry per flow) every poll.
	ratesScratch map[flow.ID]float64
	// broken and finder are RepairRoutes' scratch: the flows found
	// broken in one pass, and the search state for their new paths.
	broken []flow.Flow
	finder topology.PathFinder
	// surge holds the surge-response state (nil until
	// StartSurgeResponse).
	surge *surgeState
}

// New creates a controller managing the given nominal flow set. The flow
// demands serve as prediction fallbacks until real measurements arrive.
func New(eng *sim.Engine, net *netsim.Network, opt Optimizer, flows []flow.Flow, cfg Config) (*Controller, error) {
	if opt == nil {
		return nil, fmt.Errorf("controller: nil optimizer")
	}
	if cfg.StatsPeriod <= 0 || cfg.OptimizePeriod <= 0 {
		return nil, fmt.Errorf("controller: periods must be positive")
	}
	if cfg.PredictionQuantile <= 0 || cfg.PredictionQuantile > 1 {
		cfg.PredictionQuantile = 0.90
	}
	return &Controller{
		Cfg:       cfg,
		eng:       eng,
		net:       net,
		opt:       opt,
		predictor: flow.NewPredictor(cfg.PredictionQuantile),
		flows:     flows,
	}, nil
}

// Predictor exposes the demand predictor (tests, introspection).
func (c *Controller) Predictor() *flow.Predictor { return c.predictor }

// SetReplicaGuard arms the replica stranding guard: every optimizer result
// is audited with consolidate.StrandedPartitions against parts (partition →
// replica hosts, the cluster's PartitionHosts view) and rejected — keeping
// the previous configuration — if it would leave any partition with no
// reachable replica. Pass nil to disarm. The guard makes the consolidation
// planner replica-aware without teaching the optimizer about placement:
// a consolidation may save power, but never at the cost of the last
// reachable replica of a partition.
func (c *Controller) SetReplicaGuard(parts [][]topology.NodeID) {
	c.replicaParts = parts
}

// Start launches the periodic loops and applies an initial optimization
// immediately using the nominal demands.
func (c *Controller) Start() error {
	if c.running {
		return fmt.Errorf("controller: already started")
	}
	c.running = true
	if err := c.optimizeOnce(); err != nil {
		return err
	}
	c.eng.After(c.Cfg.StatsPeriod, c.statsTick)
	c.eng.After(c.Cfg.OptimizePeriod, c.optimizeTick)
	return nil
}

func (c *Controller) statsTick() {
	if !c.running {
		return
	}
	c.ratesScratch = c.net.FlowRatesInto(c.ratesScratch, c.Cfg.StatsPeriod)
	for _, f := range c.flows {
		c.predictor.Record(f.ID, c.ratesScratch[f.ID])
	}
	c.net.ResetStats()
	c.eng.After(c.Cfg.StatsPeriod, c.statsTick)
}

func (c *Controller) optimizeTick() {
	if !c.running {
		return
	}
	c.predictor.Roll()
	if err := c.optimizeOnce(); err != nil {
		c.Failures++
	}
	c.eng.After(c.Cfg.OptimizePeriod, c.optimizeTick)
}

// optimizeOnce runs the optimizer on predicted demands and applies the
// result.
func (c *Controller) optimizeOnce() error {
	predicted := c.predictor.PredictFlows(c.flows)
	res, err := c.opt.Optimize(predicted)
	if err != nil {
		return err
	}
	if res == nil || !res.Feasible {
		return fmt.Errorf("controller: infeasible consolidation")
	}
	if c.replicaParts != nil {
		if stranded := consolidate.StrandedPartitions(c.net.Graph(), res.Active, c.replicaParts); len(stranded) > 0 {
			c.StrandedRejects++
			return fmt.Errorf("controller: consolidation strands partitions %v (no reachable replica)", stranded)
		}
	}
	c.apply(res)
	return nil
}

// apply installs routes and the new active set. With a transition delay,
// the union of old and new sets stays powered while new paths warm up
// (make-before-break), then the spare elements power off.
func (c *Controller) apply(res *consolidate.Result) {
	newActive := res.Active.Clone()
	if c.Cfg.TransitionDelay > 0 && c.LastResult != nil {
		union := unionActive(c.net.Graph(), c.LastResult.Active, newActive)
		c.net.SetActive(union)
		if err := c.net.InstallRoutes(res.Paths); err != nil {
			panic(fmt.Sprintf("controller: invalid route from optimizer: %v", err))
		}
		c.eng.After(c.Cfg.TransitionDelay, func() {
			c.net.SetActive(newActive)
		})
	} else {
		c.net.SetActive(newActive)
		if err := c.net.InstallRoutes(res.Paths); err != nil {
			panic(fmt.Sprintf("controller: invalid route from optimizer: %v", err))
		}
	}
	c.LastResult = res
	c.Applied++
	if c.surge != nil && c.surge.inSurge {
		// Any successfully applied consolidation ends the surge-expanded
		// state, whether it came from surgeReconsolidate or the periodic
		// optimizer round.
		c.surge.inSurge = false
		c.surge.hotPolls = 0
		c.surge.calmPolls = 0
		c.SurgeReconsolidations++
	}
}

// Stop halts the loops (including the surge-response loop) after any
// in-flight tick.
func (c *Controller) Stop() {
	c.running = false
	c.StopSurgeResponse()
}

// AddFlow registers a new flow with the controller mid-run (a tenant
// arriving). The flow's configured demand seeds prediction until measured
// rates arrive; the flow gets a route at the next optimization (or
// immediately via Reoptimize).
func (c *Controller) AddFlow(f flow.Flow) error {
	if err := f.Validate(); err != nil {
		return err
	}
	for _, existing := range c.flows {
		if existing.ID == f.ID {
			return fmt.Errorf("controller: duplicate flow %d", f.ID)
		}
	}
	c.flows = append(c.flows, f)
	return nil
}

// RemoveFlow deregisters a flow (a tenant leaving). Its route stays
// installed until the next optimization stops reserving for it.
func (c *Controller) RemoveFlow(id flow.ID) bool {
	for i, f := range c.flows {
		if f.ID == id {
			c.flows = append(c.flows[:i], c.flows[i+1:]...)
			return true
		}
	}
	return false
}

// Flows returns the currently managed flow set (copy).
func (c *Controller) Flows() []flow.Flow {
	out := make([]flow.Flow, len(c.flows))
	copy(out, c.flows)
	return out
}

// Reoptimize forces an immediate optimization round outside the periodic
// schedule (used after AddFlow for latency-sensitive tenants).
func (c *Controller) Reoptimize() error {
	return c.optimizeOnce()
}

// RepairRoutes restores connectivity after injected failures invalidate
// installed routes (the fault injector's OnChange hook calls it). It is
// the cheap, fast path between optimizer rounds:
//
//  1. every managed flow whose installed route traverses an inactive
//     element is re-routed onto the shortest path through the currently
//     powered subnet (the consolidation stays minimal);
//  2. if any flow still has no active path, the controller declares an
//     emergency and powers the entire healthy fabric back on — energy
//     saving yields to availability until the next optimizer round
//     re-consolidates. (With a fault injector installed, elements that
//     are actually down stay masked off no matter what the controller
//     requests.)
//
// Flows that remain unroutable even then are truly partitioned (every
// surviving path is down) and are counted in FailedRepairs; their traffic
// keeps dropping until a repair event restores a path and RepairRoutes
// runs again. Returns (repaired, failed) for this invocation.
func (c *Controller) RepairRoutes() (repaired, failed int) {
	active := c.net.Active()
	broken := c.broken[:0]
	for _, f := range c.flows {
		if !c.net.RouteOn(f.ID) {
			broken = append(broken, f)
		}
	}
	c.broken = broken
	if len(broken) == 0 {
		return 0, 0
	}
	var stranded []flow.Flow
	for _, f := range broken {
		if p := c.finder.ShortestActivePath(active, f.Src, f.Dst); p != nil {
			if err := c.net.SetRoute(f.ID, p); err != nil {
				panic(fmt.Sprintf("controller: repair produced invalid route: %v", err))
			}
			repaired++
		} else {
			stranded = append(stranded, f)
		}
	}
	if len(stranded) > 0 {
		// Emergency failover: request everything on; the injector filter
		// keeps genuinely failed elements off.
		c.Emergencies++
		c.net.SetActive(topology.NewActiveSet(c.net.Graph()))
		active = c.net.Active()
		for _, f := range stranded {
			if p := c.finder.ShortestActivePath(active, f.Src, f.Dst); p != nil {
				if err := c.net.SetRoute(f.ID, p); err != nil {
					panic(fmt.Sprintf("controller: repair produced invalid route: %v", err))
				}
				repaired++
			} else {
				failed++
			}
		}
	}
	c.RepairedRoutes += repaired
	c.FailedRepairs += failed
	return repaired, failed
}

func unionActive(g *topology.Graph, a, b *topology.ActiveSet) *topology.ActiveSet {
	u := topology.NewEmptyActiveSet(g)
	for _, l := range g.Links() {
		if a.LinkOn(l.ID) || b.LinkOn(l.ID) {
			u.SetLink(l.ID, true)
		}
	}
	for _, n := range g.Nodes() {
		if n.Kind.IsSwitch() && (a.NodeOn(n.ID) || b.NodeOn(n.ID)) {
			u.SetNode(n.ID, true)
		}
	}
	return u
}
