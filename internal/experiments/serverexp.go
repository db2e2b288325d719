package experiments

import (
	"fmt"
	"sort"
	"strconv"

	"eprons/internal/dist"
	"eprons/internal/dvfs"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/workload"
)

// PolicyName identifies the five compared policies.
type PolicyName string

// The evaluated schemes of Fig 12.
const (
	PolNone       PolicyName = "none"
	PolTimeTrader PolicyName = "timetrader"
	PolRubik      PolicyName = "rubik"
	PolRubikPlus  PolicyName = "rubik+"
	PolEPRONS     PolicyName = "eprons"
)

// AllPolicies lists them in the paper's legend order.
var AllPolicies = []PolicyName{PolNone, PolTimeTrader, PolRubik, PolRubikPlus, PolEPRONS}

// ServerExpConfig drives the Fig 12 server-only experiments.
type ServerExpConfig struct {
	ServiceCfg workload.ServiceConfig
	Cores      int
	Alpha      float64
	TargetVP   float64
	// DurationS per point (default 30; TimeTrader needs several feedback
	// periods to settle).
	DurationS float64
	// SlackFracLo/Hi: per-request network slack as a uniform fraction of
	// the request network budget, emulating the measured request latency
	// distribution at ~20% background utilization on the full topology.
	SlackFracLo, SlackFracHi float64
	// NetworkBudget (default 5 ms); the request direction gets half.
	NetworkBudget float64
	Seed          int64
	// Workers bounds sweep concurrency: each (policy, utilization,
	// constraint) point is an independent single-server simulation whose
	// rng streams derive from (Seed, policy, operating point), so sweep
	// results are identical for every worker count. <= 1 runs the
	// historical sequential loop.
	Workers int
}

// DefaultServerExpConfig mirrors §V-B2: no network power management,
// background at 20%.
func DefaultServerExpConfig() ServerExpConfig {
	return ServerExpConfig{
		ServiceCfg:    workload.DefaultServiceConfig(),
		Cores:         power.CoresPerServer,
		Alpha:         0.9,
		TargetVP:      0.05,
		DurationS:     30,
		SlackFracLo:   0.6,
		SlackFracHi:   0.95,
		NetworkBudget: 5e-3,
		Seed:          1,
	}
}

func buildPolicy(name PolicyName, base *dist.Discrete, cfg ServerExpConfig) (server.Policy, error) {
	switch name {
	case PolNone:
		return dvfs.NewMaxFreq(), nil
	case PolTimeTrader:
		return dvfs.NewTimeTrader(), nil
	}
	m, err := dvfs.NewModel(base, cfg.Alpha, power.FMaxGHz)
	if err != nil {
		return nil, err
	}
	switch name {
	case PolRubik:
		return dvfs.NewRubik(m, cfg.TargetVP), nil
	case PolRubikPlus:
		return dvfs.NewRubikPlus(m, cfg.TargetVP), nil
	case PolEPRONS:
		return dvfs.NewEPRONSServer(m, cfg.TargetVP), nil
	}
	return nil, fmt.Errorf("experiments: unknown policy %q", name)
}

// ServerPoint is one measured operating point.
type ServerPoint struct {
	Policy      PolicyName
	Util        float64
	ConstraintS float64 // total request tail-latency constraint
	CPUPowerW   float64
	MissRate    float64 // against the slack deadline (the SLA)
	// MeanFreqGHz is the busy-time-weighted average frequency (from the
	// P-state residency histogram) — how much slower the policy actually
	// ran.
	MeanFreqGHz float64
}

// runServerPoint simulates one server at (util, totalConstraint).
func runServerPoint(name PolicyName, util, totalConstraint float64, cfg ServerExpConfig) (ServerPoint, error) {
	base, err := workload.ServiceDist(cfg.ServiceCfg)
	if err != nil {
		return ServerPoint{}, err
	}
	return runServerPointWith(name, util, totalConstraint, cfg, func() (server.Policy, error) {
		return buildPolicy(name, base, cfg)
	})
}

// runServerPointWith runs the same experiment with a custom policy builder
// (used by ablations).
func runServerPointWith(name PolicyName, util, totalConstraint float64, cfg ServerExpConfig, build func() (server.Policy, error)) (ServerPoint, error) {
	base, err := workload.ServiceDist(cfg.ServiceCfg)
	if err != nil {
		return ServerPoint{}, err
	}
	serverBudget := totalConstraint - cfg.NetworkBudget
	reqBudget := cfg.NetworkBudget / 2
	eng := sim.New()
	srv, err := server.New(eng, server.Config{
		Cores:   cfg.Cores,
		Alpha:   cfg.Alpha,
		FMaxGHz: power.FMaxGHz,
		PolicyFactory: func(int) server.Policy {
			p, err := build()
			if err != nil {
				panic(err)
			}
			return p
		},
	})
	if err != nil {
		return ServerPoint{}, err
	}
	arr := rng.Derive(cfg.Seed, fmt.Sprintf("sx-arr-%s-%g-%g", name, util, totalConstraint))
	smp := rng.Derive(cfg.Seed, fmt.Sprintf("sx-smp-%s-%g-%g", name, util, totalConstraint))
	slk := rng.Derive(cfg.Seed, fmt.Sprintf("sx-slk-%s-%g-%g", name, util, totalConstraint))
	rate := server.RateForUtilization(util, cfg.Cores, base.Mean())
	var id int64
	var arrive func()
	arrive = func() {
		now := eng.Now()
		id++
		slack := reqBudget * slk.Uniform(cfg.SlackFracLo, cfg.SlackFracHi)
		srv.Enqueue(&server.Request{
			ID:             id,
			Arrival:        now,
			BaseServiceS:   base.Sample(smp.Float64()),
			ServerDeadline: now + serverBudget,
			SlackDeadline:  now + serverBudget + slack,
		})
		if now < cfg.DurationS {
			eng.After(arr.Exp(1/rate), arrive)
		}
	}
	eng.After(arr.Exp(1/rate), arrive)
	eng.Run(cfg.DurationS * 1.5)
	eng.RunAll()
	end := eng.Now()
	// Accumulate the residency histogram in sorted-frequency order: map
	// iteration order is random, and floating-point addition is not
	// associative, so summing in map order made the last ulp of the mean
	// frequency differ between runs of the same seed.
	residency := srv.FreqResidency()
	freqs := make([]float64, 0, len(residency))
	for f := range residency {
		freqs = append(freqs, f)
	}
	sort.Float64s(freqs)
	meanFreq, total := 0.0, 0.0
	for _, f := range freqs {
		meanFreq += f * residency[f]
		total += residency[f]
	}
	if total > 0 {
		meanFreq /= total
	}
	return ServerPoint{
		Policy:      name,
		Util:        util,
		ConstraintS: totalConstraint,
		CPUPowerW:   srv.CPUPowerW(0, end),
		MissRate:    srv.Stats().MissRate(),
		MeanFreqGHz: meanFreq,
	}, nil
}

// Fig12aUtilizationSweep measures CPU power vs server utilization for all
// five policies at a fixed total constraint (paper: 30 ms).
func Fig12aUtilizationSweep(utils []float64, totalConstraint float64, cfg ServerExpConfig) ([]ServerPoint, error) {
	nu := len(utils)
	return parallel.Map(len(AllPolicies)*nu, cfg.Workers, func(i int) (ServerPoint, error) {
		return runServerPoint(AllPolicies[i/nu], utils[i%nu], totalConstraint, cfg)
	})
}

// Fig12bConstraintSweep measures CPU power vs total tail-latency
// constraint at fixed utilization (paper: 30%).
func Fig12bConstraintSweep(constraints []float64, util float64, cfg ServerExpConfig) ([]ServerPoint, error) {
	nc := len(constraints)
	return parallel.Map(len(AllPolicies)*nc, cfg.Workers, func(i int) (ServerPoint, error) {
		return runServerPoint(AllPolicies[i/nc], util, constraints[i%nc], cfg)
	})
}

// Fig12cEPRONSGrid measures EPRONS-Server across the (utilization,
// constraint) plane.
func Fig12cEPRONSGrid(utils, constraints []float64, cfg ServerExpConfig) ([]ServerPoint, error) {
	nc := len(constraints)
	return parallel.Map(len(utils)*nc, cfg.Workers, func(i int) (ServerPoint, error) {
		return runServerPoint(PolEPRONS, utils[i/nc], constraints[i%nc], cfg)
	})
}

// Fig12aTable renders the CPU power vs utilization sweep (30 ms total
// constraint).
func Fig12aTable(pts []ServerPoint) *Table {
	t := &Table{
		Title:   "Fig 12(a) — CPU power vs server utilization (30 ms constraint: 25 server + 5 network)",
		Headers: []string{"policy", "utilization", "CPU power (W)", "SLA miss", "mean freq (GHz)"},
	}
	for _, p := range pts {
		t.AddRow(string(p.Policy), Pct(p.Util), W(p.CPUPowerW), Pct(p.MissRate), F(p.MeanFreqGHz))
	}
	return t
}

// Fig12bTable renders the CPU power vs constraint sweep (30%
// utilization).
func Fig12bTable(pts []ServerPoint) *Table {
	t := &Table{
		Title:   "Fig 12(b) — CPU power vs request tail-latency constraint (30% utilization)",
		Headers: []string{"policy", "constraint(ms)", "CPU power (W)", "SLA miss", "mean freq (GHz)"},
	}
	for _, p := range pts {
		t.AddRow(string(p.Policy), Ms(p.ConstraintS), W(p.CPUPowerW), Pct(p.MissRate), F(p.MeanFreqGHz))
	}
	return t
}

// Fig12cTable renders the EPRONS-Server (utilization, constraint) grid.
func Fig12cTable(pts []ServerPoint) *Table {
	t := &Table{
		Title:   "Fig 12(c) — EPRONS-Server CPU power across (utilization, constraint)",
		Headers: []string{"utilization", "constraint(ms)", "CPU power (W)", "SLA miss"},
	}
	for _, p := range pts {
		t.AddRow(Pct(p.Util), Ms(p.ConstraintS), W(p.CPUPowerW), Pct(p.MissRate))
	}
	return t
}

// Fig05Point samples the equivalent-request violation-probability curves
// of paper Fig 5: P(work of the k-th equivalent request > ω(D)).
type Fig05Point struct {
	OmegaS float64 // work bound ω(D) in base seconds
	VPR1e  float64
	VPR2e  float64
	VPR3e  float64
}

// Fig05EquivalentCCDF evaluates the violation probability of the first
// three equivalent requests (R1e = S₁, R2e = S₁+S₂, R3e = S₁+S₂+S₃) over a
// grid of work bounds — finding a VP "is simply finding the corresponding
// y on a line given the x" (§III-B).
func Fig05EquivalentCCDF(omegas []float64) ([]Fig05Point, error) {
	base, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return nil, err
	}
	m, err := dvfs.NewModel(base, 0.9, power.FMaxGHz)
	if err != nil {
		return nil, err
	}
	var out []Fig05Point
	for _, w := range omegas {
		out = append(out, Fig05Point{
			OmegaS: w,
			VPR1e:  m.TailCCDF(1, w),
			VPR2e:  m.TailCCDF(2, w),
			VPR3e:  m.TailCCDF(3, w),
		})
	}
	return out, nil
}

// Fig05Table renders the equivalent-request violation curves.
func Fig05Table(pts []Fig05Point) *Table {
	t := &Table{
		Title:   "Fig 5 — violation probability of equivalent requests vs work bound ω(D)",
		Headers: []string{"ω(D) (ms)", "VP(R1e)", "VP(R2e)", "VP(R3e)"},
	}
	for _, p := range pts {
		t.AddRow(Ms(p.OmegaS), Pct(p.VPR1e), Pct(p.VPR2e), Pct(p.VPR3e))
	}
	return t
}

// Fig04Point is one violation-probability curve sample.
type Fig04Point struct {
	FreqGHz float64
	VPR1    float64 // in-service request
	VPR2e   float64 // equivalent request (R1+R2)
	AvgVP   float64
}

// Fig04ViolationCurves reproduces the mechanism figure: per-frequency VP
// of two queued requests and their average, showing that the average-VP
// frequency (EPRONS) sits below the max-VP frequency (prior work).
func Fig04ViolationCurves(deadline1, deadline2 float64) ([]Fig04Point, float64, float64, error) {
	base, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return nil, 0, 0, err
	}
	m, err := dvfs.NewModel(base, 0.9, power.FMaxGHz)
	if err != nil {
		return nil, 0, 0, err
	}
	var out []Fig04Point
	fMax, fAvg := -1.0, -1.0
	for _, f := range power.FreqGrid() {
		s := m.Stretch(f)
		vp1 := m.TailCCDF(1, deadline1/s)
		vp2 := m.TailCCDF(2, deadline2/s)
		avg := (vp1 + vp2) / 2
		out = append(out, Fig04Point{FreqGHz: f, VPR1: vp1, VPR2e: vp2, AvgVP: avg})
		if fMax < 0 && vp1 <= 0.05 && vp2 <= 0.05 {
			fMax = f // prior work: both requests individually meet 5%
		}
		if fAvg < 0 && avg <= 0.05 {
			fAvg = f // EPRONS: average meets 5%
		}
	}
	return out, fMax, fAvg, nil
}

// Fig04Table renders the per-frequency violation curves.
func Fig04Table(pts []Fig04Point) *Table {
	t := &Table{
		Title:   "Fig 4 — violation probability vs frequency (two queued requests)",
		Headers: []string{"freq (GHz)", "VP(R1)", "VP(R2e)", "avg VP"},
	}
	for _, p := range pts {
		t.AddRow(strconv.FormatFloat(p.FreqGHz, 'f', 1, 64), Pct(p.VPR1), Pct(p.VPR2e), Pct(p.AvgVP))
	}
	return t
}
