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
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

// ReplicaConfig drives the replicated search-tier sweep: how do the
// replication factor and the replica-selection policy trade goodput, tail
// latency, duplicate work and joint power while hosts drop off the fabric?
// Unlike the availability sweep, the fault schedule here may crash EDGE
// switches — isolating hosts outright — because surviving host loss is
// exactly what replication buys.
type ReplicaConfig struct {
	// DurationS of fault injection and query traffic per cell (default 5).
	DurationS float64
	// QueryRate in queries/s (default 40).
	QueryRate float64
	// BgUtil is the per-pod-pair background elephant utilization
	// (default 0; the sweep's interference axis is replica placement).
	BgUtil float64
	// ScaleK is the consolidation scale factor (default 1).
	ScaleK float64
	// Partitions of the search index (default: cluster's default, one per
	// host minus the aggregator slot).
	Partitions int
	// SubQueryTimeout arms the aggregator retry timer. 0 means
	// DefaultSubQueryTimeoutS; Disabled (negative) disarms the timer.
	SubQueryTimeout float64
	// RetryBudget is the shared per-query re-send budget spent after the
	// R-1 free failovers. 0 means DefaultRetryBudget; Disabled (negative)
	// turns retries off, leaving failover as the only recovery.
	RetryBudget int
	// HedgeDelayS overrides the hedged policy's duplicate delay (0 = track
	// the observed sub-query p95).
	HedgeDelayS float64
	// RepairMeanS is the mean outage duration (default 0.2 s).
	RepairMeanS float64
	// Audit runs the runtime invariant checks (query conservation, hedge
	// accounting, last-replica reachability) after each drained cell.
	Audit bool
	Seed  int64
	// Workers bounds sweep concurrency; each cell is an independent
	// simulation with per-cell derived seeds, so results are identical for
	// every worker count.
	Workers int
}

func (c *ReplicaConfig) fill() {
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

// ReplicaRow summarizes one (replication factor, selection policy, fault
// rate) operating point.
type ReplicaRow struct {
	Replicas  int
	Selection cluster.SelectionPolicy
	// FailRate is the total fabric fault rate (events/s), split evenly
	// between switch crashes (edge tier included) and link flaps.
	FailRate float64
	// Query accounting: Submitted = Completed + Lost + Orphans; Orphans
	// must be zero after the drained run.
	Submitted int
	Completed int
	Lost      int
	Orphans   int
	// Goodput is Completed/Submitted.
	Goodput float64
	// P95S/P99S are end-to-end latency quantiles of completed queries.
	P95S float64
	P99S float64
	// Attempt accounting. SubAttempts counts every sub-query send
	// (first attempts, failovers, retries and hedges); Failovers counts
	// replica-failover re-sends (not charged to the retry budget).
	SubAttempts int
	Failovers   int
	Retries     int
	Timeouts    int
	DroppedSub  int
	// Hedge accounting: Hedges = HedgeWins + HedgeWasted after the drain.
	Hedges      int
	HedgeWins   int
	HedgeWasted int
	// HedgeRate is Hedges over non-hedge attempts — the extra-work
	// fraction the hedging policy paid. WastedFrac is HedgeWasted over all
	// attempts — the share of total work that was a losing duplicate.
	HedgeRate  float64
	WastedFrac float64
	// Joint power over the traffic window: servers (CPU + static),
	// network (sampled active-set power), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
	// ActiveSwitches of the initial consolidation.
	ActiveSwitches int
	// Planner and repair activity. StrandedRejects counts consolidations
	// vetoed by the replica guard (an applied run must show zero stranded
	// partitions — the audit asserts reachability directly).
	StrandedRejects int
	Repaired        int
	Emergencies     int
	FaultsInjected  int
}

// ReplicaSweep runs the replicated-tier experiment over the cross product
// of replication factors × selection policies × fault rates. Each cell is
// an independent seeded simulation: a consolidated fat-tree serves Poisson
// partition-aggregate queries over a consistent-hash placed, R-replicated
// index while switches (including edge switches) crash and links flap. The
// controller repairs routes and re-admits suspect replicas on repair
// events; the consolidation planner is armed with the replica guard, so an
// applied active set can never strand a partition.
func ReplicaSweep(replicas []int, selections []cluster.SelectionPolicy, failRates []float64, cfg ReplicaConfig) ([]ReplicaRow, error) {
	cfg.fill()
	type cellKey struct {
		r    int
		sel  cluster.SelectionPolicy
		rate float64
	}
	var cells []cellKey
	for _, r := range replicas {
		for _, sel := range selections {
			for _, rate := range failRates {
				cells = append(cells, cellKey{r, sel, rate})
			}
		}
	}
	return parallel.Map(len(cells), cfg.Workers, func(i int) (ReplicaRow, error) {
		c := cells[i]
		row, err := replicaCell(c.r, c.sel, c.rate, cfg, cfg.Seed+int64(i))
		if err != nil {
			return ReplicaRow{}, fmt.Errorf("R=%d %v fail rate %.3g: %w", c.r, c.sel, c.rate, err)
		}
		return row, nil
	})
}

// ReplicaTable renders the sweep for the CLI harnesses.
func ReplicaTable(rows []ReplicaRow) *Table {
	t := &Table{
		Title: "Replicated search tier — goodput, tails, duplicate work and joint power vs R × selection × fault rate",
		Headers: []string{"R", "selection", "fail/s", "submitted", "lost", "goodput", "p95(ms)", "p99(ms)",
			"failovers", "hedges", "hedge rate", "wasted", "stranded", "total W"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Replicas),
			r.Selection.String(),
			fmt.Sprintf("%.3g", r.FailRate),
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Lost),
			Pct(r.Goodput),
			Ms(r.P95S),
			Ms(r.P99S),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Hedges),
			Pct(r.HedgeRate),
			Pct(r.WastedFrac),
			fmt.Sprintf("%d", r.StrandedRejects),
			W(r.TotalW),
		)
	}
	return t
}

// replicaCell runs one independent (R, selection, fault rate) simulation.
func replicaCell(r int, sel cluster.SelectionPolicy, failRate float64, cfg ReplicaConfig, seed int64) (ReplicaRow, error) {
	var row ReplicaRow
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return row, err
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())

	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return row, err
	}
	clCfg := cluster.DefaultConfig(d, func(host, core int) server.Policy { return dvfs.NewMaxFreq() })
	clCfg.CoresPerServer = 2
	clCfg.SubQueryTimeout = resolveSubQueryTimeout(cfg.SubQueryTimeout)
	clCfg.RetryBudget = resolveRetryBudget(cfg.RetryBudget)
	clCfg.Replicas = r
	clCfg.Partitions = cfg.Partitions
	clCfg.Selection = sel
	clCfg.HedgeDelayS = cfg.HedgeDelayS
	clCfg.Seed = seed
	pods := make([]int, len(ft.Hosts))
	for i, h := range ft.Hosts {
		pods[i] = ft.HostPod(h)
	}
	clCfg.HostPods = pods
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return row, err
	}

	// Flow set: query pair flows plus optional pod-pair background
	// elephants (same layout as the availability sweep).
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

	// Fixed-policy controller armed with the replica guard: the
	// consolidation is precomputed, and the guard vetoes it (failing the
	// cell) if it would strand a partition.
	ctlCfg := controller.DefaultConfig()
	ctlCfg.OptimizePeriod = cfg.DurationS + 3600
	ctl, err := controller.New(eng, net,
		controller.OptimizerFunc(func([]flow.Flow) (*consolidate.Result, error) { return placed, nil }),
		all, ctlCfg)
	if err != nil {
		return row, err
	}
	parts := cl.PartitionHosts()
	ctl.SetReplicaGuard(parts)

	// The injector interposes before the controller installs anything.
	// Repair events re-admit suspect replicas: a recovered host rejoins
	// the selection pool the moment its fabric comes back.
	inj := faults.NewInjector(net)
	inj.OnChange = func(ev faults.Event) {
		ctl.RepairRoutes()
		if ev.Kind == faults.SwitchRepair || ev.Kind == faults.LinkRepair {
			cl.ReadmitReplicas()
		}
	}
	sched := faults.Generate(ft.Graph, faults.ScheduleConfig{
		Duration:          cfg.DurationS,
		SwitchFailsPerSec: failRate / 2,
		LinkFlapsPerSec:   failRate / 2,
		RepairMeanS:       cfg.RepairMeanS,
		FailEdge:          true,
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
			Stream: rng.Derive(seed, fmt.Sprintf("replica-bg-%d", bi))}
	}
	bgs := net.StartBackgrounds(specs)
	sampler := workload.NewSampler(d, seed+5)
	stop := cl.StartPoisson(func() float64 { return cfg.QueryRate }, sampler.Draw, seed+11)

	// Joint power over the traffic window: sampled network power (repairs
	// and emergencies change the active set mid-run) plus the CPU energy
	// snapshot the instant traffic stops.
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
	cpuE := 0.0
	eng.Schedule(cfg.DurationS, func() { cpuE = cl.CPUEnergyJ(cfg.DurationS) })

	eng.Run(cfg.DurationS)
	stop()
	ctl.Stop()
	net.StopBackgrounds(bgs)
	// Drain everything: in-flight packets, hedge and retry timers, repair
	// events. Afterwards every query and every hedge has terminated.
	eng.RunAll()

	st := cl.Stats()
	if cfg.Audit {
		if err := auditRun(eng, net, st, true); err != nil {
			return row, err
		}
		if err := auditReplicaReachability(net, parts); err != nil {
			return row, err
		}
	}
	row.Replicas = r
	row.Selection = sel
	row.FailRate = failRate
	row.Submitted = st.QueriesSubmitted
	row.Completed = st.Queries
	row.Lost = st.QueriesLost
	row.Orphans = st.Orphans()
	row.Goodput = st.Goodput()
	row.P95S = st.QueryLatency.Quantile(0.95)
	row.P99S = st.QueryLatency.Quantile(0.99)
	row.SubAttempts = st.SubAttempts
	row.Failovers = st.Failovers
	row.Retries = st.Retries
	row.Timeouts = st.Timeouts
	row.DroppedSub = st.DroppedSub
	row.Hedges = st.Hedges
	row.HedgeWins = st.HedgeWins
	row.HedgeWasted = st.HedgeWasted
	if base := st.SubAttempts - st.Hedges; base > 0 {
		row.HedgeRate = float64(st.Hedges) / float64(base)
	}
	if st.SubAttempts > 0 {
		row.WastedFrac = float64(st.HedgeWasted) / float64(st.SubAttempts)
	}
	row.ServerW = cpuE/cfg.DurationS + float64(len(ft.Hosts))*power.ServerStaticW
	if netWSamples > 0 {
		row.NetW = netWSum / float64(netWSamples)
	}
	row.TotalW = row.ServerW + row.NetW
	row.StrandedRejects = ctl.StrandedRejects
	row.Repaired = ctl.RepairedRoutes
	row.Emergencies = ctl.Emergencies
	row.FaultsInjected = inj.Injected
	return row, nil
}
