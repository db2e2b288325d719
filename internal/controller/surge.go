package controller

import (
	"fmt"

	"eprons/internal/topology"
)

// Surge response: the controller's reaction to sustained overload, the
// network-side counterpart of the cluster's admission control. The joint
// optimizer consolidates the fabric for the PREDICTED load; a flash crowd
// invalidates that prediction between optimizer rounds, and the
// consolidated subnet then has no network slack left to give (§IV-C's
// per-request slack collapses as queues build). The surge response treats
// sustained saturation the way RepairRoutes treats faults — an event that
// justifies spending energy: it re-expands to the full healthy fabric (the
// K→∞ point of the paper's scale-factor axis), reclaiming network slack
// for the DVFS policies, and re-consolidates with hysteresis once the
// saturation signal stays quiet.
//
// The saturation signal is supplied by the harness (typically: the
// cluster's DVFS SaturationEpochs counter advanced since the last poll,
// OR the admission layer actively shedding). Both edges are debounced:
// SurgeTriggerPolls consecutive saturated polls arm the expansion,
// SurgeCalmPolls consecutive quiet polls re-consolidate. With a fault
// injector installed its mask still filters the expanded set, so a surge
// expansion never powers a crashed switch.

// SurgeConfig tunes the surge response loop. The zero value disables it.
type SurgeConfig struct {
	// CheckPeriod is the saturation polling interval (default: the
	// controller's StatsPeriod).
	CheckPeriod float64
	// TriggerPolls is how many consecutive saturated polls arm the
	// expansion (default 2 — one blip does not spend 72.5 s power-ons).
	TriggerPolls int
	// CalmPolls is how many consecutive quiet polls trigger
	// re-consolidation (default 5; re-consolidating is cheap to defer and
	// expensive to flap, so the calm side is the longer one).
	CalmPolls int
}

func (c *SurgeConfig) fill(statsPeriod float64) {
	if c.CheckPeriod <= 0 {
		c.CheckPeriod = statsPeriod
	}
	if c.TriggerPolls <= 0 {
		c.TriggerPolls = 2
	}
	if c.CalmPolls <= 0 {
		c.CalmPolls = 5
	}
}

// surgeState is the controller's surge bookkeeping.
type surgeState struct {
	cfg       SurgeConfig
	signal    func() bool
	inSurge   bool
	hotPolls  int
	calmPolls int
	running   bool
}

// StartSurgeResponse launches the surge-response loop: every CheckPeriod
// the saturated() signal is polled; TriggerPolls consecutive true readings
// expand the fabric (SurgeExpand), and — once expanded — CalmPolls
// consecutive false readings re-consolidate by re-running the optimizer on
// current predictions. Counters: SurgeExpansions, SurgeReconsolidations.
//
// saturated must be cheap and side-effect-free from the controller's point
// of view; it is called once per CheckPeriod on the simulation thread.
func (c *Controller) StartSurgeResponse(cfg SurgeConfig, saturated func() bool) error {
	if saturated == nil {
		return fmt.Errorf("controller: nil saturation signal")
	}
	if c.surge != nil && c.surge.running {
		return fmt.Errorf("controller: surge response already started")
	}
	cfg.fill(c.Cfg.StatsPeriod)
	c.surge = &surgeState{cfg: cfg, signal: saturated, running: true}
	c.eng.After(cfg.CheckPeriod, c.surgeTick)
	return nil
}

// StopSurgeResponse halts the loop after any in-flight tick.
func (c *Controller) StopSurgeResponse() {
	if c.surge != nil {
		c.surge.running = false
	}
}

// InSurge reports whether the fabric is currently surge-expanded.
func (c *Controller) InSurge() bool { return c.surge != nil && c.surge.inSurge }

func (c *Controller) surgeTick() {
	s := c.surge
	if s == nil || !s.running {
		return
	}
	if s.signal() {
		s.hotPolls++
		s.calmPolls = 0
		if !s.inSurge && s.hotPolls >= s.cfg.TriggerPolls {
			c.surgeExpand()
		}
	} else {
		s.hotPolls = 0
		if s.inSurge {
			s.calmPolls++
			if s.calmPolls >= s.cfg.CalmPolls {
				c.surgeReconsolidate()
			}
		}
	}
	c.eng.After(s.cfg.CheckPeriod, c.surgeTick)
}

// surgeExpand powers the entire fabric and re-routes every managed flow
// onto its shortest path through it — the maximum-network-slack
// configuration (with a fault injector installed, genuinely failed
// elements stay masked off). Flows with no path even then are left on
// their installed routes.
func (c *Controller) surgeExpand() {
	s := c.surge
	s.inSurge = true
	s.calmPolls = 0
	c.SurgeExpansions++
	c.net.SetActive(topology.NewActiveSet(c.net.Graph()))
	active := c.net.Active()
	for _, f := range c.flows {
		if p := c.finder.ShortestActivePath(active, f.Src, f.Dst); p != nil {
			if err := c.net.SetRoute(f.ID, p); err != nil {
				panic(fmt.Sprintf("controller: surge expansion produced invalid route: %v", err))
			}
		}
	}
}

// surgeReconsolidate ends the surge: the optimizer re-runs on current
// predictions (which have seen the surge decay) and its result is applied,
// shrinking the fabric back — apply() observes the surge state and counts
// the reconsolidation (a successful periodic optimizer round while
// expanded ends the surge the same way). An infeasible round keeps the
// expanded fabric and retries at the next calm streak — availability wins
// ties.
func (c *Controller) surgeReconsolidate() {
	s := c.surge
	s.hotPolls = 0
	s.calmPolls = 0
	if err := c.optimizeOnce(); err != nil {
		c.Failures++ // stay expanded; the next calm streak retries
	}
}
