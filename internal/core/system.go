package core

import (
	"fmt"

	"eprons/internal/cluster"
	"eprons/internal/controller"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/netsim"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

// SystemConfig assembles the full-fidelity EPRONS system (Fig 7): the
// packet-level network, the partition-aggregate search cluster running
// EPRONS-Server on every ISN, background elephants, and the SDN controller
// invoking the joint planner.
type SystemConfig struct {
	CoreCfg    Config
	ServiceCfg workload.ServiceConfig
	// CoresPerServer defaults to 12; experiments shrink it for speed.
	CoresPerServer int
	// TargetVP is the SLA miss budget (0.05).
	TargetVP float64
	// QueryRate polls the current cluster query arrival rate (queries/s).
	QueryRate func(t float64) float64
	// BgFraction polls background demand as a fraction of link capacity.
	BgFraction func(t float64) float64
	// NumBgFlows pod-pair elephants (default 6).
	NumBgFlows    int
	ControllerCfg controller.Config
	Seed          int64
	// PolicyName selects the ISN DVFS policy: "eprons" (default),
	// "rubik", "rubik+", "timetrader", "maxfreq".
	PolicyName string
}

// System is the assembled simulation.
type System struct {
	Eng        *sim.Engine
	FT         *fattree.FatTree
	Net        *netsim.Network
	Cluster    *cluster.Cluster
	Controller *controller.Controller
	Planner    *Planner

	cfg         SystemConfig
	bgFlows     []flow.Flow
	backgrounds []*netsim.Background
	stopQueries func()
	netAcc      *power.Accumulator

	// warmup snapshots, captured by MarkWarmup.
	markT    float64
	markCPUJ float64
	markNetJ float64
	markOK   bool
}

// NewSystem wires everything together. The server power table parameterizes
// the planner (train it once with TrainServerPowerTable).
func NewSystem(cfg SystemConfig, table *ServerPowerTable) (*System, error) {
	if cfg.QueryRate == nil || cfg.BgFraction == nil {
		return nil, fmt.Errorf("core: QueryRate and BgFraction are required")
	}
	if cfg.CoresPerServer <= 0 {
		cfg.CoresPerServer = power.CoresPerServer
	}
	if cfg.TargetVP <= 0 {
		cfg.TargetVP = 0.05
	}
	if cfg.NumBgFlows <= 0 {
		cfg.NumBgFlows = 6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ControllerCfg.StatsPeriod == 0 {
		cfg.ControllerCfg = controller.DefaultConfig()
	}
	cfg.CoreCfg.fill()

	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())

	base, err := workload.ServiceDist(cfg.ServiceCfg)
	if err != nil {
		return nil, err
	}
	mkPolicy := func(host, coreIdx int) server.Policy {
		m, err := dvfs.NewModel(base, 0.9, power.FMaxGHz)
		if err != nil {
			panic(err)
		}
		switch cfg.PolicyName {
		case "", "eprons":
			return dvfs.NewEPRONSServer(m, cfg.TargetVP)
		case "rubik":
			return dvfs.NewRubik(m, cfg.TargetVP)
		case "rubik+":
			return dvfs.NewRubikPlus(m, cfg.TargetVP)
		case "timetrader":
			return dvfs.NewTimeTrader()
		case "maxfreq":
			return dvfs.NewMaxFreq()
		default:
			panic(fmt.Sprintf("core: unknown policy %q", cfg.PolicyName))
		}
	}
	clCfg := cluster.DefaultConfig(base, mkPolicy)
	clCfg.CoresPerServer = cfg.CoresPerServer
	clCfg.ServerBudget = cfg.CoreCfg.ServerBudget
	clCfg.NetworkBudget = cfg.CoreCfg.NetworkBudget
	clCfg.RequestBudgetFrac = cfg.CoreCfg.RequestBudgetFrac
	clCfg.Seed = cfg.Seed
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return nil, err
	}

	planner, err := NewPlanner(cfg.CoreCfg, ft, table)
	if err != nil {
		return nil, err
	}
	meanS := base.Mean()
	planner.UtilFn = func() float64 {
		return cfg.QueryRate(eng.Now()) * meanS / float64(cfg.CoresPerServer)
	}

	s := &System{
		Eng: eng, FT: ft, Net: net, Cluster: cl, Planner: planner, cfg: cfg,
	}

	// Background elephants between pod-leader hosts.
	s.bgFlows = ft.PodPairElephants(100000, cfg.BgFraction(0)*ft.Cfg.LinkCapacityBps)
	s.bgFlows = s.bgFlows[:min(len(s.bgFlows), cfg.NumBgFlows)]

	// The controller manages query pair flows plus backgrounds; nominal
	// demands seed the predictor until measurements arrive, after which
	// the measured 90th-percentile rates track the live traces.
	nominal := cl.QueryDemandBps(cfg.QueryRate(0))
	managed := append(cl.PairFlows(nominal), s.bgFlows...)
	ctrl, err := controller.New(eng, net, planner, managed, cfg.ControllerCfg)
	if err != nil {
		return nil, err
	}
	s.Controller = ctrl
	return s, nil
}

// Start launches the controller, background sources and query stream.
func (s *System) Start() error {
	if err := s.Controller.Start(); err != nil {
		return err
	}
	specs := make([]netsim.BackgroundSpec, len(s.bgFlows))
	for i, f := range s.bgFlows {
		specs[i] = netsim.BackgroundSpec{ID: f.ID, Rate: func() float64 {
			return s.cfg.BgFraction(s.Eng.Now()) * s.FT.Cfg.LinkCapacityBps
		}, Stream: rng.Derive(s.cfg.Seed, fmt.Sprintf("bg-%d", i))}
	}
	s.backgrounds = append(s.backgrounds, s.Net.StartBackgrounds(specs)...)
	sampler := workload.NewSampler(s.Cluster.Cfg.ServiceDist, s.cfg.Seed+7)
	s.stopQueries = s.Cluster.StartPoisson(func() float64 {
		return s.cfg.QueryRate(s.Eng.Now())
	}, sampler.Draw, s.cfg.Seed+13)
	s.netAcc = power.NewAccumulator(s.Eng.Now(), s.Net.Active().NetworkPowerW())
	s.sampleNetPower()
	return nil
}

// sampleNetPower tracks network power at 1-second granularity.
func (s *System) sampleNetPower() {
	s.Eng.After(1.0, func() {
		s.netAcc.Advance(s.Eng.Now(), s.Net.Active().NetworkPowerW())
		s.sampleNetPower()
	})
}

// Run advances the simulation to absolute time t.
func (s *System) Run(until float64) { s.Eng.Run(until) }

// MarkWarmup snapshots energy counters at the current simulated time so
// that Report excludes everything before it. Call it between two Run()
// calls: sys.Run(5); sys.MarkWarmup(); sys.Run(35).
func (s *System) MarkWarmup() {
	now := s.Eng.Now()
	s.markT = now
	s.markCPUJ = s.Cluster.CPUEnergyJ(now)
	s.markNetJ = s.netAcc.EnergyJ(now)
	s.markOK = true
}

// Stop halts all sources and the controller.
func (s *System) Stop() {
	if s.stopQueries != nil {
		s.stopQueries()
	}
	s.Net.StopBackgrounds(s.backgrounds)
	s.Controller.Stop()
}

// Report summarizes power and SLA over [t0, t].
type Report struct {
	ServerPowerW  float64
	NetworkPowerW float64
	TotalPowerW   float64
	Queries       int
	P95LatencyS   float64
	// MissRate is the query-level (15-way aggregate) miss fraction;
	// RequestMissRate is the per-sub-query SLA the policies guarantee.
	MissRate        float64
	RequestMissRate float64
	ActiveSwitch    int
}

// Report computes the summary from the warmup mark (or simulation start if
// MarkWarmup was never called) to now. Latency and miss statistics span
// the whole run; power strictly respects the mark.
func (s *System) Report() Report {
	now := s.Eng.Now()
	t0, cpu0, net0 := 0.0, 0.0, 0.0
	if s.markOK {
		t0, cpu0, net0 = s.markT, s.markCPUJ, s.markNetJ
	}
	sp := s.Cluster.CPUPowerWSince(cpu0, t0, now) + float64(len(s.Cluster.Servers()))*power.ServerStaticW
	np := 0.0
	if now > t0 {
		np = (s.netAcc.EnergyJ(now) - net0) / (now - t0)
	}
	st := s.Cluster.Stats()
	return Report{
		ServerPowerW:    sp,
		NetworkPowerW:   np,
		TotalPowerW:     sp + np,
		Queries:         st.Queries,
		P95LatencyS:     st.QueryLatency.Quantile(0.95),
		MissRate:        st.MissRate(),
		RequestMissRate: s.Cluster.RequestMissRate(),
		ActiveSwitch:    s.Net.Active().ActiveSwitches(),
	}
}
