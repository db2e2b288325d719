package experiments

import (
	"fmt"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/controller"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/faults"
	"eprons/internal/flow"
	"eprons/internal/netsim"
	"eprons/internal/parallel"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

// AvailabilityConfig drives the fault-injection availability sweep: how
// well does a consolidated (minimally powered) fabric keep serving
// partition-aggregate queries while switches crash and links flap?
type AvailabilityConfig struct {
	// DurationS of fault injection and query traffic per cell (default 5).
	DurationS float64
	// QueryRate in queries/s (default 40).
	QueryRate float64
	// BgUtil is the per-pod-pair background elephant utilization
	// (default 0.10; 0 disables background traffic).
	BgUtil float64
	// ScaleK is the consolidation scale factor (default 1 — the minimal
	// subnet, the regime where faults bite hardest).
	ScaleK float64
	// SubQueryTimeout arms the aggregator retry timer. 0 means
	// DefaultSubQueryTimeoutS; Disabled (negative) disarms the timer.
	SubQueryTimeout float64
	// RetryBudget is the per-query sub-query re-send budget. 0 means
	// DefaultRetryBudget; Disabled (negative) turns retries off.
	RetryBudget int
	// RepairMeanS is the mean outage duration (default 0.2 s).
	RepairMeanS float64
	// SurgeMagnitude layers a flash crowd over the query rate — a surge of
	// this peak multiplier (profile SurgeProfile) spanning the middle half
	// of the run — so faults and overload stress the system at once.
	// Values <= 1 disable it (the default sweep is fault-only).
	SurgeMagnitude float64
	// SurgeProfile shapes the surge (default step).
	SurgeProfile workload.SurgeProfile
	// Admission enables the overload control plane (bounded queues,
	// watermark shedding) during the fault sweep.
	Admission bool
	// Audit runs the runtime invariant checks (query conservation,
	// offered >= carried bytes, engine bookkeeping) after each drained
	// cell.
	Audit bool
	// Fluid enables netsim's hybrid fluid/packet background engine for
	// the sweep's background elephants (Config.FluidBackground). Fault
	// masks arrive through SetActive, which demotes affected sources to
	// packet mode synchronously, so drop semantics under faults are
	// unchanged.
	Fluid bool
	Seed  int64
	// Workers bounds sweep concurrency; each fault-rate cell is an
	// independent simulation with per-cell derived seeds, so results are
	// identical for every worker count.
	Workers int
}

func (c *AvailabilityConfig) fill() {
	if c.DurationS <= 0 {
		c.DurationS = 5
	}
	if c.QueryRate <= 0 {
		c.QueryRate = 40
	}
	if c.BgUtil < 0 {
		c.BgUtil = 0
	}
	if c.ScaleK <= 0 {
		c.ScaleK = 1
	}
	if c.RepairMeanS <= 0 {
		c.RepairMeanS = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// AvailabilityRow summarizes one fault-rate operating point.
type AvailabilityRow struct {
	// FailRate is the total fabric fault rate (events/s), split evenly
	// between switch crashes and link flaps.
	FailRate float64
	// Query accounting: Submitted = Completed + Lost + Shed + Orphans.
	// Orphans must be zero after the drained run — every query terminates.
	// Shed stays zero unless Admission is enabled.
	Submitted int
	Completed int
	Lost      int
	Shed      int
	Orphans   int
	// Recovery machinery counters.
	Retries    int
	Timeouts   int
	DroppedSub int   // dropped sub-query messages (either direction)
	MsgDropped int64 // network-wide message-level drops (incl. background)
	// Goodput is Completed/Submitted; StrictMissRate counts lost queries
	// as SLA misses over all terminated queries.
	Goodput        float64
	StrictMissRate float64
	// P95S is the 95th-percentile end-to-end latency of completed queries.
	P95S float64
	// Controller repair activity.
	Repaired      int
	FailedRepairs int
	Emergencies   int
	// FaultsInjected counts applied fail/repair events.
	FaultsInjected int
	// ActiveSwitches of the initial consolidation.
	ActiveSwitches int
}

// AvailabilitySweep runs the availability experiment across fault rates:
// a consolidated fat-tree serves Poisson partition-aggregate queries while
// a seeded schedule of switch crashes and link flaps (rate split evenly)
// degrades the powered subnet. The controller repairs routes on every
// fault event (escalating to an emergency full-fabric power-on when the
// consolidated subnet is partitioned), and the cluster's timeout/retry
// machinery re-sends sub-queries lost in transients. After the traffic
// window the engine drains completely, so every submitted query terminates
// as completed or lost — Orphans is asserted zero by the harness tests.
func AvailabilitySweep(failRates []float64, cfg AvailabilityConfig) ([]AvailabilityRow, error) {
	cfg.fill()
	return parallel.Map(len(failRates), cfg.Workers, func(i int) (AvailabilityRow, error) {
		row, err := availabilityCell(failRates[i], cfg, cfg.Seed+int64(i))
		if err != nil {
			return AvailabilityRow{}, fmt.Errorf("fail rate %.3g: %w", failRates[i], err)
		}
		return row, nil
	})
}

// AvailabilityTable renders the sweep for the CLI harnesses.
func AvailabilityTable(rows []AvailabilityRow) *Table {
	t := &Table{
		Title: "Availability under fault injection — consolidated subnet with route repair + sub-query retry",
		Headers: []string{"fail/s", "submitted", "completed", "lost", "orphans", "retries",
			"dropped msgs", "goodput", "strict miss", "p95(ms)", "repaired", "emergencies", "faults"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.3g", r.FailRate),
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.Orphans),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.MsgDropped),
			Pct(r.Goodput),
			Pct(r.StrictMissRate),
			Ms(r.P95S),
			fmt.Sprintf("%d", r.Repaired),
			fmt.Sprintf("%d", r.Emergencies),
			fmt.Sprintf("%d", r.FaultsInjected),
		)
	}
	return t
}

// availabilityCell runs one independent fault-rate simulation.
func availabilityCell(failRate float64, cfg AvailabilityConfig, seed int64) (AvailabilityRow, error) {
	var row AvailabilityRow
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return row, err
	}
	eng := sim.New()
	ncfg := netsim.DefaultConfig()
	ncfg.FluidBackground = cfg.Fluid
	net := netsim.New(eng, ft.Graph, ncfg)

	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return row, err
	}
	clCfg := cluster.DefaultConfig(d, func(host, core int) server.Policy { return dvfs.NewMaxFreq() })
	clCfg.CoresPerServer = 2
	clCfg.SubQueryTimeout = resolveSubQueryTimeout(cfg.SubQueryTimeout)
	clCfg.RetryBudget = resolveRetryBudget(cfg.RetryBudget)
	clCfg.AdmissionControl = cfg.Admission
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return row, err
	}

	// Flow set: query pair flows plus optional pod-pair background
	// elephants (same layout as the Fig 10/11 harness).
	var bgFlows []flow.Flow
	if cfg.BgUtil > 0 {
		fid := flow.ID(50000)
		k := ft.Cfg.K
		hostsPerPod := len(ft.Hosts) / k
		for sp := 0; sp < k; sp++ {
			for dp := 0; dp < k; dp++ {
				if sp == dp {
					continue
				}
				bgFlows = append(bgFlows, flow.Flow{
					ID:        fid,
					Src:       ft.Hosts[sp*hostsPerPod+dp%hostsPerPod],
					Dst:       ft.Hosts[dp*hostsPerPod+sp%hostsPerPod],
					DemandBps: cfg.BgUtil * ft.Cfg.LinkCapacityBps,
					Class:     flow.Background,
				})
				fid++
			}
		}
	}
	reserve := cl.QueryDemandBps(cfg.QueryRate)
	if reserve < 1 {
		reserve = 1
	}
	all := append(cl.PairFlows(reserve), bgFlows...)

	placed, err := consolidate.Greedy(ft, all, consolidate.Config{ScaleK: cfg.ScaleK, SafetyMarginBps: 50e6})
	if err != nil {
		return row, err
	}
	if !placed.Feasible {
		return row, fmt.Errorf("%w (%d unplaced)", ErrInfeasible, len(placed.Unplaced))
	}
	row.ActiveSwitches = placed.Active.ActiveSwitches()

	// Fixed-policy controller: the consolidation is precomputed, the
	// controller's job in this experiment is route repair. The optimize
	// period exceeds the run so only the initial application happens.
	ctlCfg := controller.DefaultConfig()
	ctlCfg.OptimizePeriod = cfg.DurationS + 3600
	ctl, err := controller.New(eng, net,
		controller.OptimizerFunc(func([]flow.Flow) (*consolidate.Result, error) { return placed, nil }),
		all, ctlCfg)
	if err != nil {
		return row, err
	}

	// The injector interposes on the active-set path BEFORE the controller
	// installs anything, so no configuration bypasses the fault mask.
	inj := faults.NewInjector(net)
	inj.OnChange = func(faults.Event) { ctl.RepairRoutes() }
	sched := faults.Generate(ft.Graph, faults.ScheduleConfig{
		Duration:          cfg.DurationS,
		SwitchFailsPerSec: failRate / 2,
		LinkFlapsPerSec:   failRate / 2,
		RepairMeanS:       cfg.RepairMeanS,
	}, seed)
	if err := inj.Start(sched); err != nil {
		return row, err
	}
	if err := ctl.Start(); err != nil {
		return row, err
	}

	specs := make([]netsim.BackgroundSpec, len(bgFlows))
	for bi, f := range bgFlows {
		specs[bi] = netsim.BackgroundSpec{ID: f.ID, Rate: func() float64 { return f.DemandBps },
			Stream: rng.Derive(seed, fmt.Sprintf("avail-bg-%d", bi))}
	}
	bgs := net.StartBackgrounds(specs)
	// Optional flash crowd on top of the faults: a surge spanning the
	// middle half of the run. An empty train multiplies by exactly 1, so
	// the fault-only sweep is untouched.
	var train workload.SurgeTrain
	if cfg.SurgeMagnitude > 1 {
		train.Surges = append(train.Surges, workload.Surge{
			Profile:   cfg.SurgeProfile,
			StartS:    cfg.DurationS * 0.25,
			DurationS: cfg.DurationS * 0.5,
			Magnitude: cfg.SurgeMagnitude,
		})
	}
	sampler := workload.NewSampler(d, seed+5)
	stop := cl.StartPoisson(func() float64 { return cfg.QueryRate * train.At(eng.Now()) }, sampler.Draw, seed+11)

	eng.Run(cfg.DurationS)
	stop()
	ctl.Stop()
	net.StopBackgrounds(bgs)
	// Drain everything: in-flight packets, retry timers, repair events.
	// Afterwards every query has terminated, so Orphans must be zero.
	eng.RunAll()

	st := cl.Stats()
	if cfg.Audit {
		if err := auditRun(eng, net, st, true); err != nil {
			return row, err
		}
	}
	row.FailRate = failRate
	row.Submitted = st.QueriesSubmitted
	row.Completed = st.Queries
	row.Lost = st.QueriesLost
	row.Shed = st.QueriesShed
	row.Orphans = st.Orphans()
	row.Retries = st.Retries
	row.Timeouts = st.Timeouts
	row.DroppedSub = st.DroppedSub
	row.MsgDropped = net.MsgDropped
	row.Goodput = st.Goodput()
	row.StrictMissRate = st.StrictMissRate()
	row.P95S = st.QueryLatency.Quantile(0.95)
	row.Repaired = ctl.RepairedRoutes
	row.FailedRepairs = ctl.FailedRepairs
	row.Emergencies = ctl.Emergencies
	row.FaultsInjected = inj.Injected
	return row, nil
}
