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
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/power"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// cellSpec is one robustness cell of the availability, overload or
// replica sweep: only the axes on which those sweeps differ. Everything
// else is common: a k=4 fat-tree of 2-core servers, Greedy consolidation
// applied by a fixed-policy controller, Poisson partition-aggregate
// traffic, a full drain and the runtime audit.
type cellSpec struct {
	seed      int64
	durationS float64
	scaleK    float64
	// ttPeriod > 0 runs TimeTrader servers adjusting at this period;
	// 0 runs every core at MaxFreq.
	ttPeriod float64
	// Cluster overrides, already resolved to cluster.Config values.
	timeoutS    float64
	retryBudget int
	admission   bool
	highWM      int // 0 keeps the SLA-aware watermark
	// replica, when set, serves an R-replicated index placed with pod
	// spreading, arms the controller's replica guard, re-admits suspect
	// replicas on repair events and audits last-replica reachability.
	replica *replicaSpec
	// The pair flows reserve bandwidth for reserveRate; the offered rate
	// is queryRate × crowd.At(now).
	reserveRate float64
	queryRate   float64
	crowd       workload.SurgeTrain
	// faults, when set, drives a fault injector (seeded by seed) whose
	// events trigger route repair.
	faults *faults.ScheduleConfig
	// surgeResponse starts the controller's surge-response loop.
	surgeResponse bool
	// samplePower samples network power over the traffic window and
	// snapshots the backlog and CPU energy the instant traffic stops.
	samplePower bool
}

type replicaSpec struct {
	replicas    int
	partitions  int
	selection   cluster.SelectionPolicy
	hedgeDelayS float64
}

// cellResult is what the sweeps project into their rows.
type cellResult struct {
	st             *cluster.Stats
	cl             *cluster.Cluster
	net            *netsim.Network
	ctl            *controller.Controller
	activeSwitches int
	faultsInjected int
	// Set only with samplePower: the backlog when traffic stops, and
	// power over [0, durationS] for servers (CPU + static) and the
	// network (sampled active-set power).
	endQueue int
	serverW  float64
	netW     float64
}

// runCell builds, runs, drains and audits one robustness cell.
func runCell(s cellSpec) (*cellResult, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())

	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return nil, err
	}
	policy := func(host, core int) server.Policy { return dvfs.NewMaxFreq() }
	if s.ttPeriod > 0 {
		policy = func(host, core int) server.Policy {
			tt := dvfs.NewTimeTrader()
			tt.Period = s.ttPeriod
			return tt
		}
	}
	clCfg := cluster.DefaultConfig(d, policy)
	clCfg.CoresPerServer = 2
	clCfg.SubQueryTimeout = s.timeoutS
	clCfg.RetryBudget = s.retryBudget
	clCfg.AdmissionControl = s.admission
	if s.admission && s.highWM > 0 {
		clCfg.Admission.HighWM = s.highWM
	}
	if r := s.replica; r != nil {
		clCfg.Replicas = r.replicas
		clCfg.Partitions = r.partitions
		clCfg.Selection = r.selection
		clCfg.HedgeDelayS = r.hedgeDelayS
		clCfg.Seed = s.seed
		clCfg.HostPods = make([]int, len(ft.Hosts))
		for i, h := range ft.Hosts {
			clCfg.HostPods[i] = ft.HostPod(h)
		}
	}
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return nil, err
	}

	// The query pair flows are the whole flow set; the surge part of the
	// offered rate is exactly the demand the consolidation did not predict.
	flows := cl.PairFlows(max(cl.QueryDemandBps(s.reserveRate), 1))
	placed, err := consolidate.Greedy(ft, flows, consolidate.Config{ScaleK: s.scaleK, SafetyMarginBps: 50e6})
	if err != nil {
		return nil, err
	}
	if !placed.Feasible {
		return nil, fmt.Errorf("%w (%d unplaced)", ErrInfeasible, len(placed.Unplaced))
	}

	// Fixed-policy controller: the consolidation is precomputed, and the
	// optimize period exceeds the run so only the initial application
	// happens. Its job here is route repair and the surge response.
	ctlCfg := controller.DefaultConfig()
	ctlCfg.OptimizePeriod = s.durationS + 3600
	ctl, err := controller.New(eng, net,
		controller.OptimizerFunc(func([]flow.Flow) (*consolidate.Result, error) { return placed, nil }),
		flows, ctlCfg)
	if err != nil {
		return nil, err
	}
	// The guard vetoes (failing the cell) a consolidation that would
	// strand a partition.
	var parts [][]topology.NodeID
	if s.replica != nil {
		parts = cl.PartitionHosts()
		ctl.SetReplicaGuard(parts)
	}

	// The injector interposes on the active-set path before the controller
	// installs anything, so no configuration bypasses the fault mask.
	// Repair events re-admit suspect replicas: a recovered host rejoins
	// the selection pool the moment its fabric comes back.
	var inj *faults.Injector
	if s.faults != nil {
		inj = faults.NewInjector(net)
		inj.OnChange = func(ev faults.Event) {
			ctl.RepairRoutes()
			if s.replica != nil && (ev.Kind == faults.SwitchRepair || ev.Kind == faults.LinkRepair) {
				cl.ReadmitReplicas()
			}
		}
		if err := inj.Start(faults.Generate(ft.Graph, *s.faults, s.seed)); err != nil {
			return nil, err
		}
	}
	if err := ctl.Start(); err != nil {
		return nil, err
	}

	// Saturation signal for the surge response: the per-server DVFS
	// saturation counters advanced since the last poll, OR admission is
	// actively shedding, OR the recent end-to-end tail is over the SLA.
	if s.surgeResponse {
		sla := clCfg.ServerBudget + clCfg.NetworkBudget
		latWin := metrics.NewWindow(5 * s.ttPeriod)
		cl.OnQueryComplete = func(lat float64) { latWin.Add(eng.Now(), lat) }
		var lastSat int64
		signal := func() bool {
			sat := cl.SaturationEpochs()
			hot := sat > lastSat || cl.Shedding() ||
				latWin.QuantileAtOr(eng.Now(), 0.99, 0) > sla
			lastSat = sat
			return hot
		}
		if err := ctl.StartSurgeResponse(controller.SurgeConfig{CheckPeriod: s.durationS / 40}, signal); err != nil {
			return nil, err
		}
	}

	sampler := workload.NewSampler(d, s.seed+5)
	stop := cl.StartPoisson(func() float64 { return s.queryRate * s.crowd.At(eng.Now()) }, sampler.Draw, s.seed+11)

	res := &cellResult{cl: cl, net: net, ctl: ctl, activeSwitches: placed.Active.ActiveSwitches()}
	// Network power is sampled over the traffic window (repairs, emergencies
	// and the surge response change the active set mid-run, so end-state
	// power would lie). The backlog and CPU energy are read the instant
	// traffic stops: the drain completes the backlog.
	netWSum, netWSamples, cpuE := 0.0, 0, 0.0
	if s.samplePower {
		dt := s.durationS / 40
		var sample func()
		sample = func() {
			netWSum += net.Active().NetworkPowerW()
			netWSamples++
			if eng.Now()+dt <= s.durationS+1e-9 {
				eng.After(dt, sample)
			}
		}
		sample()
		eng.Schedule(s.durationS, func() {
			res.endQueue = cl.TotalQueueLen()
			cpuE = cl.CPUEnergyJ(s.durationS)
		})
	}

	eng.Run(s.durationS)
	stop()
	ctl.Stop()
	// Drain everything: queued sub-queries, in-flight packets, hedge and
	// retry timers, repair events. Afterwards every query has terminated.
	eng.RunAll()

	res.st = cl.Stats()
	if err := auditRun(eng, net, cl); err != nil {
		return nil, err
	}
	if err := auditReplicaReachability(net, parts); err != nil {
		return nil, err
	}
	if inj != nil {
		res.faultsInjected = inj.Injected
	}
	if s.samplePower {
		res.serverW = cpuE/s.durationS + float64(len(ft.Hosts))*power.ServerStaticW
		res.netW = netWSum / float64(netWSamples)
	}
	return res, nil
}
