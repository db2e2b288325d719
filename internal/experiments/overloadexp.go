package experiments

import (
	"fmt"
	"math"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/controller"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

// OverloadConfig drives the flash-crowd overload sweep: the offered query
// rate is pushed to multiplier × BaseRate and the overload control plane
// (bounded queues + watermark admission + surge response) is compared
// against the unprotected baseline at every operating point.
type OverloadConfig struct {
	// DurationS of query traffic per cell (default 2). The engine then
	// drains completely, so the no-admission baseline pays for its backlog
	// in full.
	DurationS float64
	// BaseRate is the 1× offered query rate in queries/s (default 200,
	// ≈40% cluster utilization on the 16-host / 2-core cell, so 3× is a
	// genuine overload).
	BaseRate float64
	// SurgeStartFrac places the surge onset at this fraction of the run
	// (default 0.25); the surge then holds to the end of the traffic
	// window so the backlog snapshot at DurationS lands mid-crowd.
	SurgeStartFrac float64
	// Profile shapes multipliers > 1 (default SurgeStep — the classic
	// flash crowd).
	Profile workload.SurgeProfile
	// BgUtil is the per-pod-pair background elephant utilization
	// (default 0.10; admission's defer stage pauses these first).
	BgUtil float64
	// ScaleK is the consolidation scale factor (default 1 — the minimal
	// subnet the surge response re-expands).
	ScaleK float64
	// TTPeriod is the TimeTrader adjustment period (default 1 s; the
	// paper's 5 s is too slow to react within a short cell).
	TTPeriod float64
	// RetryBudget is the per-query sub-query re-send budget
	// (bounded-queue rejections ride the retry path). 0 means
	// DefaultRetryBudget; Disabled (negative) turns retries off.
	RetryBudget int
	// HighWM overrides the admission high watermark (default 0 derives
	// the SLA-aware value from the service distribution).
	HighWM int
	// SurgeResponse starts the controller's surge-response loop in the
	// admission cells (no-admission cells never get one: the baseline is
	// the fully unprotected system).
	SurgeResponse bool
	// Audit runs the runtime invariant checks after each drained cell.
	Audit bool
	// Fluid enables netsim's hybrid fluid/packet background engine for
	// the sweep's background elephants (Config.FluidBackground).
	Fluid bool
	Seed  int64
	// Workers bounds sweep concurrency; each multiplier cell is an
	// independent simulation with per-cell derived seeds, so results are
	// identical for every worker count.
	Workers int
}

func (c *OverloadConfig) fill() {
	if c.DurationS <= 0 {
		c.DurationS = 2
	}
	if c.BaseRate <= 0 {
		c.BaseRate = 200
	}
	if c.SurgeStartFrac <= 0 || c.SurgeStartFrac >= 1 {
		c.SurgeStartFrac = 0.25
	}
	if c.BgUtil < 0 {
		c.BgUtil = 0
	}
	if c.ScaleK <= 0 {
		c.ScaleK = 1
	}
	if c.TTPeriod <= 0 {
		c.TTPeriod = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// OverloadCell is one (multiplier, admission setting) simulation outcome.
type OverloadCell struct {
	// Query accounting: Submitted = Completed + Shed + Lost + Orphans;
	// Orphans must be zero after the drained run.
	Submitted int
	Completed int
	Shed      int
	Lost      int
	Orphans   int
	// RejectedSub counts bounded-queue refusals at the ISNs (the backstop
	// behind the aggregator watermark); ShedEpisodes counts distinct
	// shedding episodes (hysteresis edges, not per-query rejections).
	RejectedSub  int
	ShedEpisodes int
	// Goodput is Completed/Submitted; ShedRate is Shed/Submitted.
	Goodput  float64
	ShedRate float64
	// P95S/P99S are end-to-end latency quantiles of ADMITTED, completed
	// queries — the population admission control promises to protect.
	P95S float64
	P99S float64
	// AttainRate is the fraction of completed queries inside the
	// end-to-end SLA (server + network budget).
	AttainRate float64
	// PeakQueue is the highest per-server queue depth seen anywhere;
	// EndQueue is the total backlog at the moment traffic stops (the
	// unbounded-growth signature of the no-admission baseline).
	PeakQueue int
	EndQueue  int
	// SaturationEpochs counts DVFS decisions pinned at fmax with the SLA
	// still infeasible — the server-side surge signal.
	SaturationEpochs int64
	// Surge-response activity (zero without SurgeResponse).
	SurgeExpansions       int
	SurgeReconsolidations int
	// Power over the traffic window [0, DurationS]: servers (CPU +
	// static), network (sampled active-set power), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
}

// OverloadRow compares the protected and unprotected systems at one
// offered-load multiplier.
type OverloadRow struct {
	// Multiplier scales BaseRate: ≤1 scales the whole window, >1 arrives
	// as a flash-crowd surge (cfg.Profile) from SurgeStartFrac·DurationS
	// to the end of the window.
	Multiplier float64
	// AC is the cell with the overload control plane enabled; NoAC is the
	// unprotected baseline (unbounded queues, no shedding, no surge
	// response).
	AC   OverloadCell
	NoAC OverloadCell
}

// OverloadSweep runs the flash-crowd experiment across offered-load
// multipliers. Each multiplier runs the same seeded workload twice — with
// the overload control plane and without — so the comparison isolates the
// control plane's effect: bounded tail latency for admitted work at the
// cost of an explicit shed rate, versus unbounded queue growth.
func OverloadSweep(multipliers []float64, cfg OverloadConfig) ([]OverloadRow, error) {
	cfg.fill()
	return parallel.Map(len(multipliers), cfg.Workers, func(i int) (OverloadRow, error) {
		mult := multipliers[i]
		seed := cfg.Seed + int64(i)
		ac, err := overloadCell(mult, true, cfg, seed)
		if err != nil {
			return OverloadRow{}, fmt.Errorf("multiplier %.3g (admission): %w", mult, err)
		}
		noac, err := overloadCell(mult, false, cfg, seed)
		if err != nil {
			return OverloadRow{}, fmt.Errorf("multiplier %.3g (baseline): %w", mult, err)
		}
		return OverloadRow{Multiplier: mult, AC: ac, NoAC: noac}, nil
	})
}

// OverloadTable renders the sweep for the CLI harnesses.
func OverloadTable(rows []OverloadRow) *Table {
	t := &Table{
		Title: "Overload control plane under flash crowds — admission+shedding (AC) vs unprotected baseline",
		Headers: []string{"mult", "submitted", "AC shed", "AC goodput", "AC p99(ms)", "AC attain",
			"AC peakQ", "surges", "base p99(ms)", "base attain", "base peakQ", "base endQ", "AC W", "base W"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2g", r.Multiplier),
			fmt.Sprintf("%d", r.AC.Submitted),
			fmt.Sprintf("%d", r.AC.Shed),
			Pct(r.AC.Goodput),
			Ms(r.AC.P99S),
			Pct(r.AC.AttainRate),
			fmt.Sprintf("%d", r.AC.PeakQueue),
			fmt.Sprintf("%d", r.AC.SurgeExpansions),
			Ms(r.NoAC.P99S),
			Pct(r.NoAC.AttainRate),
			fmt.Sprintf("%d", r.NoAC.PeakQueue),
			fmt.Sprintf("%d", r.NoAC.EndQueue),
			W(r.AC.TotalW),
			W(r.NoAC.TotalW),
		)
	}
	return t
}

// overloadCell runs one independent (multiplier, admission) simulation.
func overloadCell(mult float64, admission bool, cfg OverloadConfig, seed int64) (OverloadCell, error) {
	var cell OverloadCell
	if mult <= 0 || math.IsNaN(mult) || math.IsInf(mult, 0) {
		return cell, fmt.Errorf("non-positive offered-load multiplier %g", mult)
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return cell, err
	}
	eng := sim.New()
	ncfg := netsim.DefaultConfig()
	ncfg.FluidBackground = cfg.Fluid
	net := netsim.New(eng, ft.Graph, ncfg)

	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return cell, err
	}
	clCfg := cluster.DefaultConfig(d, func(host, core int) server.Policy {
		tt := dvfs.NewTimeTrader()
		tt.Period = cfg.TTPeriod
		return tt
	})
	clCfg.CoresPerServer = 2
	clCfg.RetryBudget = resolveRetryBudget(cfg.RetryBudget)
	clCfg.AdmissionControl = admission
	if admission && cfg.HighWM > 0 {
		clCfg.Admission.HighWM = cfg.HighWM
	}
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return cell, err
	}

	// Offered rate: multipliers ≤ 1 scale the whole window; multipliers
	// > 1 arrive as a flash crowd (cfg.Profile) that starts at
	// SurgeStartFrac·DurationS and holds to the end of the window.
	baseRate := cfg.BaseRate
	var train workload.SurgeTrain
	if mult <= 1 {
		baseRate *= mult
	} else {
		start := cfg.SurgeStartFrac * cfg.DurationS
		train.Surges = append(train.Surges, workload.Surge{
			Profile:   cfg.Profile,
			StartS:    start,
			DurationS: cfg.DurationS - start,
			Magnitude: mult,
		})
	}
	rate := func() float64 { return baseRate * train.At(eng.Now()) }

	// Flow set: query pair flows reserved for the BASE rate (the surge is
	// exactly the demand the consolidation did not predict) plus pod-pair
	// background elephants. With admission on, the defer stage pauses the
	// elephants before any query is shed.
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
	reserve := cl.QueryDemandBps(cfg.BaseRate)
	if reserve < 1 {
		reserve = 1
	}
	all := append(cl.PairFlows(reserve), bgFlows...)

	placed, err := consolidate.Greedy(ft, all, consolidate.Config{ScaleK: cfg.ScaleK, SafetyMarginBps: 50e6})
	if err != nil {
		return cell, err
	}
	if !placed.Feasible {
		return cell, fmt.Errorf("%w (%d unplaced)", ErrInfeasible, len(placed.Unplaced))
	}

	// Fixed-policy controller: the consolidation is precomputed; its role
	// here is the surge response (re-expanding the fabric and shrinking it
	// back), not periodic re-optimization.
	ctlCfg := controller.DefaultConfig()
	ctlCfg.OptimizePeriod = cfg.DurationS + 3600
	ctl, err := controller.New(eng, net,
		controller.OptimizerFunc(func([]flow.Flow) (*consolidate.Result, error) { return placed, nil }),
		all, ctlCfg)
	if err != nil {
		return cell, err
	}
	if err := ctl.Start(); err != nil {
		return cell, err
	}

	// Saturation signal for the surge response: the per-server DVFS
	// saturation counters advanced since the last poll, OR admission is
	// actively shedding, OR the recent end-to-end tail is over the SLA.
	sla := clCfg.ServerBudget + clCfg.NetworkBudget
	latWin := metrics.NewWindow(5 * cfg.TTPeriod)
	cl.OnQueryComplete = func(lat float64) { latWin.Add(eng.Now(), lat) }
	if admission && cfg.SurgeResponse {
		var lastSat int64
		signal := func() bool {
			sat := cl.SaturationEpochs()
			hot := sat > lastSat || cl.Shedding() ||
				latWin.QuantileAtOr(eng.Now(), 0.99, 0) > sla
			lastSat = sat
			return hot
		}
		err := ctl.StartSurgeResponse(controller.SurgeConfig{
			CheckPeriod: cfg.DurationS / 40,
		}, signal)
		if err != nil {
			return cell, err
		}
	}

	specs := make([]netsim.BackgroundSpec, len(bgFlows))
	for bi, f := range bgFlows {
		specs[bi] = netsim.BackgroundSpec{ID: f.ID, Rate: func() float64 {
			if admission && cl.Deferring() {
				return 0 // defer stage: background yields before queries shed
			}
			return f.DemandBps
		}, Stream: rng.Derive(seed, fmt.Sprintf("overload-bg-%d", bi))}
	}
	bgs := net.StartBackgrounds(specs)
	sampler := workload.NewSampler(d, seed+5)
	stop := cl.StartPoisson(rate, sampler.Draw, seed+11)

	// Network power: sample the active set over the traffic window (the
	// surge response changes it mid-run, so end-state power would lie).
	netWSum, netWSamples := 0.0, 0
	sampleDt := cfg.DurationS / 40
	var sampleNet func()
	sampleNet = func() {
		netWSum += net.Active().NetworkPowerW()
		netWSamples++
		if eng.Now()+sampleDt <= cfg.DurationS+1e-9 {
			eng.After(sampleDt, sampleNet)
		}
	}
	sampleNet()

	// Snapshot the backlog and CPU energy the instant traffic stops: the
	// drain completes the backlog, so post-drain stats would hide it.
	endQueue, cpuE := 0, 0.0
	eng.Schedule(cfg.DurationS, func() {
		endQueue = cl.TotalQueueLen()
		cpuE = cl.CPUEnergyJ(cfg.DurationS)
	})

	eng.Run(cfg.DurationS)
	stop()
	ctl.Stop()
	net.StopBackgrounds(bgs)
	// Drain everything: queued sub-queries, in-flight packets, retries.
	// Afterwards every query has terminated, so Orphans must be zero.
	eng.RunAll()

	st := cl.Stats()
	if cfg.Audit {
		if err := auditRun(eng, net, st, true); err != nil {
			return cell, err
		}
	}
	cell.Submitted = st.QueriesSubmitted
	cell.Completed = st.Queries
	cell.Shed = st.QueriesShed
	cell.Lost = st.QueriesLost
	cell.Orphans = st.Orphans()
	cell.RejectedSub = st.RejectedSub
	cell.ShedEpisodes = st.ShedTransitions
	cell.Goodput = st.Goodput()
	cell.ShedRate = st.ShedRate()
	cell.P95S = st.QueryLatency.Quantile(0.95)
	cell.P99S = st.QueryLatency.Quantile(0.99)
	cell.AttainRate = 1 - st.MissRate()
	cell.PeakQueue = cl.PeakQueue()
	cell.EndQueue = endQueue
	cell.SaturationEpochs = cl.SaturationEpochs()
	cell.SurgeExpansions = ctl.SurgeExpansions
	cell.SurgeReconsolidations = ctl.SurgeReconsolidations
	cell.ServerW = cpuE/cfg.DurationS + float64(len(ft.Hosts))*power.ServerStaticW
	if netWSamples > 0 {
		cell.NetW = netWSum / float64(netWSamples)
	}
	cell.TotalW = cell.ServerW + cell.NetW
	return cell, nil
}
