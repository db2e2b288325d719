package core

import (
	"fmt"

	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// DiurnalConfig drives the Fig 14/15 experiment: a 24-hour model-based
// sweep at 1-minute granularity. Like the paper's Fig 13/15 ("this result
// is scaled based on the result of our MiniNet experiments"), power levels
// come from trained models — the server power table and the consolidation
// planner — evaluated along the diurnal traces, re-planning every
// OptimizePeriod.
type DiurnalConfig struct {
	Planner *Planner
	// Server models per policy: the planner's model is EPRONS's; baselines
	// use their own training runs (or a closed-form twin.Model).
	TimeTraderTable ServerModel
	MaxFreqTable    ServerModel

	// SearchTrace and BgTrace are intensity curves — the synthetic
	// workload.Trace shapes or a measured workload.SampledTrace loaded
	// from CSV.
	SearchTrace workload.Intensity
	BgTrace     workload.Intensity
	// PeakUtil is the server utilization at 100% search load (default
	// 0.5).
	PeakUtil float64
	// StepS is the reporting granularity (default 60 s).
	StepS float64
	// OptimizePeriodS is the re-planning period (default 600 s).
	OptimizePeriodS float64
	// DurationS is the experiment span (default 24 h).
	DurationS float64
	// BgFlows is the number of background pod-pair elephants whose demand
	// follows BgTrace (default: all 12 ordered pod pairs of a 4-pod
	// fat-tree).
	BgFlows int
	// Workers bounds the concurrency across the three compared schemes.
	// EPRONS evolves a plan through time and must stay sequential within
	// itself, but the three schemes never read each other's state, so they
	// run as independent day-long sweeps (<= 1 replays the historical
	// single-loop order; the result is identical either way).
	Workers int
}

// DiurnalSeries holds one scheme's per-minute power and derived savings.
type DiurnalSeries struct {
	Name    string
	TotalW  metrics.Series
	NetW    metrics.Series
	ServerW metrics.Series
}

// newDiurnalSeries returns an empty series with room for n points.
func newDiurnalSeries(name string, n int) DiurnalSeries {
	series := func() metrics.Series {
		return metrics.Series{T: make([]float64, 0, n), V: make([]float64, 0, n)}
	}
	return DiurnalSeries{Name: name, TotalW: series(), NetW: series(), ServerW: series()}
}

// DiurnalResult bundles the three compared schemes plus the traces.
type DiurnalResult struct {
	Times      []float64
	SearchLoad []float64
	BgLoad     []float64
	EPRONS     DiurnalSeries
	TimeTrader DiurnalSeries
	NoPM       DiurnalSeries
}

// AvgSaving returns the mean fractional saving of s against the baseline
// series (pointwise).
func AvgSaving(s, baseline *metrics.Series) float64 {
	if s.Len() == 0 || s.Len() != baseline.Len() {
		return 0
	}
	sum := 0.0
	for i := range s.V {
		sum += SavingsVsBaseline(s.V[i], baseline.V[i])
	}
	return sum / float64(s.Len())
}

// MaxSaving returns the peak pointwise fractional saving.
func MaxSaving(s, baseline *metrics.Series) float64 {
	best := 0.0
	for i := 0; i < s.Len() && i < baseline.Len(); i++ {
		if v := SavingsVsBaseline(s.V[i], baseline.V[i]); v > best {
			best = v
		}
	}
	return best
}

func (c *DiurnalConfig) fill() error {
	if c.Planner == nil {
		return fmt.Errorf("core: diurnal config needs a planner")
	}
	if c.TimeTraderTable == nil || c.MaxFreqTable == nil {
		return fmt.Errorf("core: diurnal config needs baseline tables")
	}
	if c.SearchTrace == nil || c.BgTrace == nil {
		return fmt.Errorf("core: diurnal config needs search and background traces")
	}
	if c.PeakUtil <= 0 {
		c.PeakUtil = 0.5
	}
	if c.StepS <= 0 {
		c.StepS = 60
	}
	if c.OptimizePeriodS <= 0 {
		c.OptimizePeriodS = 600
	}
	if c.DurationS <= 0 {
		c.DurationS = workload.Day
	}
	if c.BgFlows <= 0 {
		c.BgFlows = 12
	}
	return nil
}

// planFlows builds the flow set priced at a plan point, in one slice: the
// aggregated latency-sensitive pair demand for the search workload at
// server utilization util (matching cluster.QueryDemandBps: aggregate
// request+reply bytes per pair), then the ordered pod-pair elephants at
// fraction bg of link capacity.
func (c *DiurnalConfig) planFlows(util, bg float64) []flow.Flow {
	ft := c.Planner.FT
	hosts := ft.Hosts
	// Queries/second producing this per-ISN utilization with the default
	// 4 ms mean service time on 12 cores; each query touches every ISN,
	// so the cluster query rate equals the per-server sub-query rate.
	qps := util * 12 / 4e-3
	perPair := qps / float64(len(hosts)) * (1500 + 6000) * 8
	out := make([]flow.Flow, 0, len(hosts)*(len(hosts)-1)+c.BgFlows)
	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			out = append(out, flow.Flow{
				ID:        flow.ID(i*len(hosts) + j),
				Src:       hosts[i],
				Dst:       hosts[j],
				DemandBps: perPair,
				Class:     flow.LatencySensitive,
			})
		}
	}
	bgFlows := ft.PodPairElephants(100000, bg*ft.Cfg.LinkCapacityBps)
	return append(out, bgFlows[:min(len(bgFlows), c.BgFlows)]...)
}

// diurnalStep is one sampled instant of the shared trace grid.
type diurnalStep struct {
	t, load, bg, util float64
}

// steps samples the traces once; all three schemes replay the same grid.
func (c *DiurnalConfig) steps() []diurnalStep {
	out := make([]diurnalStep, 0, int(c.DurationS/c.StepS)+1)
	for t := 0.0; t < c.DurationS; t += c.StepS {
		load := c.SearchTrace.At(t)
		out = append(out, diurnalStep{
			t:    t,
			load: load,
			bg:   c.BgTrace.At(t),
			util: c.PeakUtil * load,
		})
	}
	return out
}

// runEPRONS replays the day under the joint planner, re-planning every
// optimization period using the demand at that instant (the controller's
// predictor view). Stateful: the plan carries over between periods, so this
// scheme is inherently sequential within itself.
func (cfg *DiurnalConfig) runEPRONS(steps []diurnalStep, out *DiurnalSeries) error {
	p := cfg.Planner
	var plan *Plan
	nextPlanAt := 0.0
	for _, st := range steps {
		if st.t >= nextPlanAt || plan == nil {
			// The flow set only matters at a plan point; most steps
			// replay the standing plan.
			flows := cfg.planFlows(st.util, st.bg)
			newPlan, err := p.PlanK(flows, st.util)
			if err == nil {
				plan = newPlan
			}
			// On infeasibility keep the previous plan (controller
			// semantics); if there has never been one, fall back to the
			// full topology.
			if plan == nil {
				fullPlan, ferr := p.FullTopologyPlan(flows, st.util)
				if ferr != nil {
					return fmt.Errorf("core: no feasible initial plan: %v / %v", err, ferr)
				}
				plan = fullPlan
			}
			nextPlanAt = st.t + cfg.OptimizePeriodS
		}
		// Between plans the network stays as-is; server power follows the
		// instantaneous utilization with the plan's slack.
		effBudget := p.Cfg.ServerBudget + plan.SlackS
		cpu, ok := p.Table.Lookup(st.util, effBudget)
		if !ok {
			cpu, _ = p.Table.Lookup(st.util, p.Cfg.ServerBudget)
		}
		serverW := float64(p.Cfg.NumServers) * (cpu + power.ServerStaticW)
		out.NetW.Add(st.t, plan.NetworkPowerW)
		out.ServerW.Add(st.t, serverW)
		out.TotalW.Add(st.t, plan.NetworkPowerW+serverW)
	}
	return nil
}

// runTableBaseline replays the day for a full-topology baseline (TimeTrader
// or no-PM): pure per-step lookups into its server model.
func (cfg *DiurnalConfig) runTableBaseline(steps []diurnalStep, table ServerModel, budget, fullPower float64, out *DiurnalSeries) {
	p := cfg.Planner
	for _, st := range steps {
		cpu, ok := table.Lookup(st.util, budget)
		if !ok {
			cpu, _ = table.Lookup(st.util, p.Cfg.ServerBudget)
		}
		serverW := float64(p.Cfg.NumServers) * (cpu + power.ServerStaticW)
		out.NetW.Add(st.t, fullPower)
		out.ServerW.Add(st.t, serverW)
		out.TotalW.Add(st.t, fullPower+serverW)
	}
}

// RunDiurnal executes the 24-hour sweep. The three schemes share only
// read-only inputs (traces, tables, topology) and write disjoint series, so
// they run concurrently under cfg.Workers; every scheme performs exactly
// the per-step arithmetic of the historical single loop, so the result is
// bit-identical for every worker count.
func RunDiurnal(cfg DiurnalConfig) (*DiurnalResult, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p := cfg.Planner
	fullPower := topology.NewActiveSet(p.FT.Graph).NetworkPowerW()
	steps := cfg.steps()
	n := len(steps)
	res := &DiurnalResult{
		Times:      make([]float64, 0, n),
		SearchLoad: make([]float64, 0, n),
		BgLoad:     make([]float64, 0, n),
		EPRONS:     newDiurnalSeries("EPRONS", n),
		TimeTrader: newDiurnalSeries("TimeTrader", n),
		NoPM:       newDiurnalSeries("no power management", n),
	}
	for _, st := range steps {
		res.Times = append(res.Times, st.t)
		res.SearchLoad = append(res.SearchLoad, st.load)
		res.BgLoad = append(res.BgLoad, st.bg)
	}

	// TimeTrader: full topology (no DCN power management); server power
	// from its own feedback-trained table at the plain server budget plus
	// the generous full-topology slack. No-PM: full topology, max
	// frequency.
	ttBudget := p.Cfg.ServerBudget + p.Cfg.NetworkBudget*p.Cfg.RequestBudgetFrac
	runs := []func() error{
		func() error { return cfg.runEPRONS(steps, &res.EPRONS) },
		func() error {
			cfg.runTableBaseline(steps, cfg.TimeTraderTable, ttBudget, fullPower, &res.TimeTrader)
			return nil
		},
		func() error {
			cfg.runTableBaseline(steps, cfg.MaxFreqTable, p.Cfg.ServerBudget, fullPower, &res.NoPM)
			return nil
		},
	}
	if err := parallel.ForEach(len(runs), cfg.Workers, func(i int) error { return runs[i]() }); err != nil {
		return nil, err
	}
	return res, nil
}
