package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"eprons/internal/consolidate"
	"eprons/internal/core"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/milp"
	"eprons/internal/netmodel"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/workload"
)

// TrainTables trains the three server power tables (EPRONS, TimeTrader,
// MaxFreq) used by the joint experiments. quick shrinks the grid and
// durations for tests/benches.
func TrainTables(quick bool) (eprons, timetrader, maxfreq *core.ServerPowerTable, err error) {
	return TrainTablesWorkers(quick, 0)
}

// TrainTablesWorkers is TrainTables with an explicit per-table training
// concurrency (0 = one worker per CPU; 1 = sequential). The trained tables
// are identical for every worker count.
func TrainTablesWorkers(quick bool, workers int) (eprons, timetrader, maxfreq *core.ServerPowerTable, err error) {
	mk := func(policy func(m *dvfs.Model) server.Policy, dur, warmup float64) (*core.ServerPowerTable, error) {
		cfg := core.DefaultTrainConfig()
		cfg.Policy = policy
		cfg.Duration = dur
		cfg.WarmupS = warmup
		cfg.Workers = workers
		if quick {
			cfg.Cores = 4
			cfg.Utils = []float64{0.10, 0.30, 0.50}
			cfg.Budgets = []float64{8e-3, 12e-3, 20e-3, 30e-3}
			if warmup == 0 {
				cfg.Duration = dur / 3
			}
		}
		return core.TrainServerPowerTable(cfg)
	}
	eprons, err = mk(func(m *dvfs.Model) server.Policy { return dvfs.NewEPRONSServer(m, 0.05) }, 20, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	// TimeTrader's 5-second feedback loop starts at fmax and steps one
	// notch per period: give it 100 s to settle and measure afterwards.
	timetrader, err = mk(func(m *dvfs.Model) server.Policy { return dvfs.NewTimeTrader() }, 160, 100)
	if err != nil {
		return nil, nil, nil, err
	}
	maxfreq, err = mk(func(m *dvfs.Model) server.Policy { return dvfs.NewMaxFreq() }, 10, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	return eprons, timetrader, maxfreq, nil
}

// TrainNetTable measures the 95th-percentile query network latency per
// scale factor K at each background level with the packet simulator and
// returns it as a netmodel.Trained table — the paper's §IV-A latency
// training ("we use a portion of the application queries to train our
// model"). Assign the result to Planner.TrainedNet to plan from measured
// rather than analytic latencies.
func TrainNetTable(ks []int, bgUtils []float64, cfg NetLatencyConfig) (*netmodel.Trained, error) {
	rows, err := Fig11ScaleFactor(ks, bgUtils, cfg)
	if err != nil {
		return nil, err
	}
	tr := netmodel.NewTrained()
	for _, r := range rows {
		if !r.Feasible {
			continue
		}
		tr.Add(r.K, r.BgUtil, r.P95S)
	}
	return tr, nil
}

// Fig13Row is one (background, aggregation, constraint) total-power cell.
type Fig13Row struct {
	BgUtil      float64
	Level       int
	ConstraintS float64
	TotalW      float64
	Feasible    bool
}

// Fig13JointPower reproduces the total-system-power curves: for each
// background level and aggregation policy, sweep the request tail-latency
// constraint and model total power at 30% server utilization (like the
// paper, results are scaled through the trained models).
func Fig13JointPower(table *core.ServerPowerTable, bgUtils []float64, constraints []float64) ([]Fig13Row, error) {
	return Fig13JointPowerScaled(table, bgUtils, constraints, 1, 1)
}

// Fig13JointPowerScaled is Fig13JointPower with a network-latency scale
// calibration (netScale ≈ 25 matches the paper's MiniNet-measured
// magnitudes and reproduces the Fig 13 feasibility boundaries and
// aggregation-2-vs-3 inversion; 1 = clean-simulator scale). Every
// (background, level, constraint) cell is an independent plan evaluation
// over read-only shared models, fanned out over workers goroutines
// (<= 1 = sequential; rows are identical for every worker count).
func Fig13JointPowerScaled(table *core.ServerPowerTable, bgUtils []float64, constraints []float64, netScale float64, workers int) ([]Fig13Row, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.NetLatencyScale = netScale
	planner, err := core.NewPlanner(cfg, ft, table)
	if err != nil {
		return nil, err
	}
	// Demand sets per background level are shared read-only by the cells.
	flowSets := make([][]flow.Flow, len(bgUtils))
	for i, bg := range bgUtils {
		flowSets[i] = jointFlows(ft, 0.30, bg)
	}
	nl := ft.NumAggregationPolicies()
	nc := len(constraints)
	return parallel.Map(len(bgUtils)*nl*nc, workers, func(i int) (Fig13Row, error) {
		bi, level, ci := i/(nl*nc), (i/nc)%nl, i%nc
		bg, c := bgUtils[bi], constraints[ci]
		plan, err := planner.PlanAggregation(flowSets[bi], 0.30, level, c)
		if err != nil {
			return Fig13Row{}, err
		}
		return Fig13Row{
			BgUtil:      bg,
			Level:       level,
			ConstraintS: c,
			TotalW:      plan.TotalPowerW,
			Feasible:    plan.Feasible,
		}, nil
	})
}

// Fig13Tables renders one total-power table per background level: a row
// per constraint, a column per aggregation level.
func Fig13Tables(rows []Fig13Row, bgUtils, constraints []float64) []*Table {
	var out []*Table
	for _, bg := range bgUtils {
		t := &Table{
			Title:   fmt.Sprintf("Fig 13 — total system power at %s background traffic (30%% server utilization)", Pct(bg)),
			Headers: []string{"constraint(ms)", "agg 0", "agg 1", "agg 2", "agg 3"},
		}
		for _, c := range constraints {
			cells := []string{Ms(c), "—", "—", "—", "—"}
			for _, r := range rows {
				if r.BgUtil == bg && r.ConstraintS == c && r.Level >= 0 && r.Level < 4 {
					cells[1+r.Level] = "infeasible"
					if r.Feasible {
						cells[1+r.Level] = W(r.TotalW)
					}
				}
			}
			t.AddRow(cells...)
		}
		out = append(out, t)
	}
	return out
}

// jointFlows builds the combined query + background demand set at a server
// utilization and background fraction.
func jointFlows(ft *fattree.FatTree, util, bg float64) []flow.Flow {
	hosts := ft.Hosts
	qps := util * 12 / 4e-3
	perPair := qps / float64(len(hosts)) * (1500 + 6000) * 8
	var out []flow.Flow
	for i := range hosts {
		for j := range hosts {
			if i == j {
				continue
			}
			out = append(out, flow.Flow{
				ID:  flow.ID(i*len(hosts) + j),
				Src: hosts[i], Dst: hosts[j],
				DemandBps: perPair, Class: flow.LatencySensitive,
			})
		}
	}
	return append(out, ft.PodPairElephants(100000, bg*ft.Cfg.LinkCapacityBps)...)
}

// Fig14Traces samples the diurnal search-load and background curves at n
// points over 24 h.
func Fig14Traces(n int) (times, search, bg []float64) {
	st := workload.SearchLoadTrace()
	bt := workload.BackgroundTrace()
	for i := 0; i < n; i++ {
		t := float64(i) / float64(n) * workload.Day
		times = append(times, t)
		search = append(search, st.At(t))
		bg = append(bg, bt.At(t))
	}
	return times, search, bg
}

// Fig14Table renders Fig14Traces samples with clock-time labels.
func Fig14Table(times, search, bg []float64) *Table {
	t := &Table{
		Title:   "Fig 14 — diurnal traces",
		Headers: []string{"time", "search load (% of peak)", "background (% of bandwidth)"},
	}
	for i := range times {
		sec := int(times[i])
		t.AddRow(fmt.Sprintf("%02d:%02d", sec/3600, sec%3600/60), Pct(search[i]), Pct(bg[i]))
	}
	return t
}

// Fig15Summary condenses the diurnal run into the paper's headline
// numbers.
type Fig15Summary struct {
	Result           *core.DiurnalResult
	EPRONSAvgSaving  float64
	EPRONSPeakSaving float64
	TTAvgSaving      float64
	TTPeakSaving     float64
	ServerAvgEPRONS  float64
	ServerAvgTT      float64
	NetAvgEPRONS     float64
}

// Fig15Diurnal runs the 24-hour joint experiment and summarizes savings
// against the no-power-management baseline (sequentially; see
// Fig15DiurnalWorkers).
func Fig15Diurnal(eprons, timetrader, maxfreq *core.ServerPowerTable, stepS float64) (*Fig15Summary, error) {
	return Fig15DiurnalWorkers(eprons, timetrader, maxfreq, stepS, 0)
}

// Fig15DiurnalWorkers is Fig15Diurnal with explicit concurrency: the three
// compared schemes replay the day concurrently, and the EPRONS planner's
// K-candidate search fans out under the same bound. The summary is
// identical for every worker count.
func Fig15DiurnalWorkers(eprons, timetrader, maxfreq *core.ServerPowerTable, stepS float64, workers int) (*Fig15Summary, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	planner, err := core.NewPlanner(core.DefaultConfig(), ft, eprons)
	if err != nil {
		return nil, err
	}
	planner.Workers = workers
	res, err := core.RunDiurnal(core.DiurnalConfig{
		Planner:         planner,
		TimeTraderTable: timetrader,
		MaxFreqTable:    maxfreq,
		SearchTrace:     workload.SearchLoadTrace(),
		BgTrace:         workload.BackgroundTrace(),
		PeakUtil:        0.5,
		StepS:           stepS,
		Workers:         workers,
	})
	if err != nil {
		return nil, err
	}
	return &Fig15Summary{
		Result:           res,
		EPRONSAvgSaving:  core.AvgSaving(&res.EPRONS.TotalW, &res.NoPM.TotalW),
		EPRONSPeakSaving: core.MaxSaving(&res.EPRONS.TotalW, &res.NoPM.TotalW),
		TTAvgSaving:      core.AvgSaving(&res.TimeTrader.TotalW, &res.NoPM.TotalW),
		TTPeakSaving:     core.MaxSaving(&res.TimeTrader.TotalW, &res.NoPM.TotalW),
		ServerAvgEPRONS:  core.AvgSaving(&res.EPRONS.ServerW, &res.NoPM.ServerW),
		ServerAvgTT:      core.AvgSaving(&res.TimeTrader.ServerW, &res.NoPM.ServerW),
		NetAvgEPRONS:     core.AvgSaving(&res.EPRONS.NetW, &res.NoPM.NetW),
	}, nil
}

// Fig15Tables renders the diurnal run: Fig 15(a), total power at hourly
// rows of a replay at stepS seconds, and Fig 15(b), the savings against
// no power management.
func Fig15Tables(sum *Fig15Summary, stepS float64) []*Table {
	res := sum.Result
	a := &Table{
		Title:   "Fig 15(a) — total system power over 24 h (hourly rows; simulation at the chosen step)",
		Headers: []string{"hour", "search load", "background", "EPRONS (W)", "TimeTrader (W)", "no PM (W)", "EPRONS net (W)"},
	}
	perHour := max(int(3600/stepS), 1)
	for i := 0; i < res.EPRONS.TotalW.Len(); i += perHour {
		a.AddRow(fmt.Sprintf("%02d:00", int(res.Times[i]/3600)), Pct(res.SearchLoad[i]), Pct(res.BgLoad[i]),
			W(res.EPRONS.TotalW.V[i]), W(res.TimeTrader.TotalW.V[i]), W(res.NoPM.TotalW.V[i]), W(res.EPRONS.NetW.V[i]))
	}
	b := &Table{
		Title:   "Fig 15(b) — savings vs no power management (paper: EPRONS 25% avg / 31.25% peak; TimeTrader 8% avg / 12.5% peak)",
		Headers: []string{"scheme", "total avg", "total peak", "server avg", "network avg"},
	}
	b.AddRow("EPRONS", Pct(sum.EPRONSAvgSaving), Pct(sum.EPRONSPeakSaving), Pct(sum.ServerAvgEPRONS), Pct(sum.NetAvgEPRONS))
	b.AddRow("TimeTrader", Pct(sum.TTAvgSaving), Pct(sum.TTPeakSaving), Pct(sum.ServerAvgTT), Pct(0))
	return []*Table{a, b}
}

// HeuristicVsExactRow compares the greedy consolidator against the MILP on
// one random instance (the ablation DESIGN.md calls out).
type HeuristicVsExactRow struct {
	Flows          int
	GreedySwitches int
	ExactSwitches  int
	GreedyPowerW   float64
	ExactPowerW    float64
	GreedyDur      time.Duration
	ExactDur       time.Duration
	ExactOptimal   bool
}

// AblationHeuristicVsExact runs both solvers on random flow sets of the
// given sizes. maxNodes bounds the branch-and-bound search (0 = 1500); a
// node-limited run may return a worse-than-greedy incumbent, reflected in
// ExactOptimal=false.
func AblationHeuristicVsExact(sizes []int, seed int64, maxNodes int) ([]HeuristicVsExactRow, error) {
	if maxNodes <= 0 {
		maxNodes = 1500
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	stream := rng.Derive(seed, "heur-vs-exact")
	var out []HeuristicVsExactRow
	for _, n := range sizes {
		var flows []flow.Flow
		for i := 0; i < n; i++ {
			src := ft.Hosts[stream.Intn(len(ft.Hosts))]
			dst := ft.Hosts[stream.Intn(len(ft.Hosts))]
			if src == dst {
				continue
			}
			class := flow.LatencySensitive
			demand := 10e6 + stream.Float64()*40e6
			if stream.Intn(3) == 0 {
				class = flow.Background
				demand = 100e6 + stream.Float64()*300e6
			}
			flows = append(flows, flow.Flow{ID: flow.ID(i), Src: src, Dst: dst, DemandBps: demand, Class: class})
		}
		cfg := consolidate.Config{ScaleK: 2, SafetyMarginBps: 50e6}
		t0 := time.Now()
		greedy, err := consolidate.Greedy(ft, flows, cfg)
		gDur := time.Since(t0)
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		exact, err := consolidate.Exact(ft, flows, cfg, milp.Options{MaxNodes: maxNodes})
		eDur := time.Since(t0)
		if err != nil {
			return nil, err
		}
		row := HeuristicVsExactRow{Flows: len(flows), GreedyDur: gDur, ExactDur: eDur, ExactOptimal: exact.Optimal}
		if greedy.Feasible {
			row.GreedySwitches = greedy.Active.ActiveSwitches()
			row.GreedyPowerW = greedy.NetworkPowerW
		}
		if exact.Feasible {
			row.ExactSwitches = exact.Active.ActiveSwitches()
			row.ExactPowerW = exact.NetworkPowerW
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationTable renders the greedy-vs-exact comparison. The solver times
// are wall-clock measurements, not simulation output, so they stay out of
// the table (see AblationTimings).
func AblationTable(rows []HeuristicVsExactRow) *Table {
	t := &Table{
		Title:   "Ablation — greedy heuristic vs exact MILP (eq. 2–9)",
		Headers: []string{"flows", "greedy sw", "exact sw"},
	}
	for _, r := range rows {
		exact := strconv.Itoa(r.ExactSwitches)
		if !r.ExactOptimal {
			exact += " (node-limited)"
		}
		t.AddRow(strconv.Itoa(r.Flows), strconv.Itoa(r.GreedySwitches), exact)
	}
	return t
}

// AblationTimings summarizes the two solvers' wall times over rows in one
// line, for printing after AblationTable.
func AblationTimings(rows []HeuristicVsExactRow) string {
	var b strings.Builder
	b.WriteString("solver wall time (greedy / exact):")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(";")
		}
		fmt.Fprintf(&b, " %d flows %v / %v", r.Flows,
			r.GreedyDur.Round(time.Microsecond), r.ExactDur.Round(time.Millisecond))
	}
	return b.String()
}

// AblationAvgVsMax compares EPRONS's average-VP aggregation (with and
// without EDF) against max-VP at one operating point, isolating the two
// design choices.
type AblationPolicyRow struct {
	Variant   string
	CPUPowerW float64
	MissRate  float64
}

// AblationAvgVsMaxVP runs the four combinations of {avg,max} × {EDF,FIFO}.
func AblationAvgVsMaxVP(util, totalConstraint float64, cfg ServerExpConfig) ([]AblationPolicyRow, error) {
	base, err := workload.ServiceDist(cfg.ServiceCfg)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		agg  dvfs.Aggregate
		edf  bool
	}{
		{"max-vp fifo (rubik+)", dvfs.MaxVP, false},
		{"max-vp edf", dvfs.MaxVP, true},
		{"avg-vp fifo", dvfs.AvgVP, false},
		{"avg-vp edf (eprons)", dvfs.AvgVP, true},
	}
	var out []AblationPolicyRow
	for _, v := range variants {
		v := v
		saveName := PolicyName("ablation-" + v.name)
		point, err := runServerPointWith(saveName, util, totalConstraint, cfg, func() (server.Policy, error) {
			m, err := dvfs.NewModel(base, cfg.Alpha, power.FMaxGHz)
			if err != nil {
				return nil, err
			}
			return dvfs.NewModelPolicy(v.name, m, cfg.TargetVP, v.agg, true, v.edf), nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, AblationPolicyRow{Variant: v.name, CPUPowerW: point.CPUPowerW, MissRate: point.MissRate})
	}
	return out, nil
}
