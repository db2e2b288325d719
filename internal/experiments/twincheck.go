package experiments

import (
	"fmt"
	"math"
	"time"

	"eprons/internal/consolidate"
	"eprons/internal/core"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/parallel"
	"eprons/internal/server"
	"eprons/internal/twin"
)

// The pinned in-domain twin-vs-DES error bands. The analytic network
// model shares the planner's known optimistic bias against the packet
// simulator (the same gap NetLatencyScale calibrates away for MiniNet
// magnitudes), so the network band is a factor-of-2 honesty bound, not a
// precision claim; the server band reflects the twin's conservative
// M/G/c + two-speed-mix pricing against the adaptive per-request DES
// policy. TestTwinCheckBandsAndClamps enforces both.
const (
	TwinNetRelBand    = 0.60
	TwinServerRelBand = 0.45
)

// TwinCheckConfig drives the twin-vs-DES validation sweep: the network
// side replays the Fig 10 aggregation grid cell-by-cell against the
// twin's closed-form tier model, and the server side replays the trained
// server-power grid against the twin's M/G/c + DVFS pricing.
type TwinCheckConfig struct {
	// Levels and BgUtils define the network grid (defaults: all
	// aggregation levels of the fabric, backgrounds {0.1, 0.2, 0.4} —
	// the last drives the deepest levels out of the model's domain on
	// purpose, to exercise clamp reporting).
	Levels  []int
	BgUtils []float64
	// Net configures the packet simulations (duration, arity, seed).
	Net NetLatencyConfig
	// Quick shrinks the server training grid to the 4-core quick grid
	// used by the fast experiment paths.
	Quick bool
	// Workers bounds sweep concurrency; cells are independent.
	Workers int
}

// TwinCheckRow is one validated cell. Net rows compare the DES-measured
// request p95 (seconds) with the twin's NetTailS; server rows compare the
// DES-trained per-server CPU power (W) with twin.Lookup. A cell with
// Clamped set is out of the analytic model's validated domain — the twin
// refuses to vouch for it, and the row is excluded from the error bands.
type TwinCheckRow struct {
	Kind    string  // "net" or "server"
	Level   int     // net rows: aggregation level
	BgUtil  float64 // net rows: background load
	Util    float64 // server rows: server utilization
	BudgetS float64 // server rows: latency budget
	DES     float64 // measured value (NaN when the DES cell is infeasible)
	Twin    float64
	RelErr  float64 // |Twin-DES|/DES when both sides are defined, else NaN
	// Clamped: the twin flagged the cell out-of-domain (a link past the
	// clamp threshold) or infeasible (no frequency meets the VP target).
	Clamped      bool
	DESFeasible  bool
	TwinFeasible bool
}

// TwinCheckSummary aggregates the sweep: per-side worst relative errors
// over in-domain cells, and the out-of-domain bookkeeping the acceptance
// criteria pin (every clamped cell must be flagged, never silently
// extrapolated into the bands).
type TwinCheckSummary struct {
	Rows []TwinCheckRow
	// NetMaxRel / ServerMaxRel are the worst in-domain relative errors
	// (both sides feasible, nothing clamped).
	NetMaxRel    float64
	ServerMaxRel float64
	// InDomain / Clamped count cells; Disagree counts cells where the
	// twin and the DES disagree on feasibility outside the clamp region.
	InDomain int
	Clamped  int
	Disagree int
}

func (c *TwinCheckConfig) fill(levels int) {
	if len(c.Levels) == 0 {
		for l := 0; l < levels; l++ {
			c.Levels = append(c.Levels, l)
		}
	}
	if len(c.BgUtils) == 0 {
		c.BgUtils = []float64{0.1, 0.2, 0.4}
	}
}

// TwinCheck runs the validation sweep. The network half prices every
// (level, background) cell both ways: a packet simulation over the fixed
// aggregation policy (exactly the Fig 10 cell) and a twin WhatIf; the
// server half trains the EPRONS server power table on its DES grid and
// compares every OK cell with the twin's closed-form Lookup at matching
// core count. It never fails on an infeasible DES cell — infeasibility is
// data (the twin is supposed to have clamped there).
func TwinCheck(cfg TwinCheckConfig) (*TwinCheckSummary, error) {
	// Fixed-policy placement by mean demand, as in Fig 10.
	if cfg.Net.QueryReserveBps == 0 {
		cfg.Net.QueryReserveBps = 1
	}
	if err := cfg.Net.fill(); err != nil {
		return nil, err
	}
	ftCfg := fattree.DefaultConfig()
	ftCfg.K = cfg.Net.K
	ft, err := fattree.New(ftCfg)
	if err != nil {
		return nil, err
	}
	tm, err := twin.New(twin.Config{FabricK: cfg.Net.K})
	if err != nil {
		return nil, err
	}
	cfg.fill(tm.NumAggregationLevels())

	// Network grid: each DES cell is an independent simulation.
	nb := len(cfg.BgUtils)
	netRows, err := parallel.Map(len(cfg.Levels)*nb, cfg.Workers, func(i int) (TwinCheckRow, error) {
		level, bg := cfg.Levels[i/nb], cfg.BgUtils[i%nb]
		row := TwinCheckRow{Kind: "net", Level: level, BgUtil: bg, DES: math.NaN(), RelErr: math.NaN()}
		est, err := tm.WhatIf(twin.Query{AggLevel: level, BgUtil: bg, ServerUtil: 0.3, QueryRate: cfg.Net.QueryRate})
		if err != nil {
			return row, err
		}
		row.Twin = est.NetTailS
		row.Clamped = est.Clamped
		row.TwinFeasible = !est.Clamped
		st, _, derr := measureNetwork(ft.AggregationPolicy(level), ft, bg, cfg.Net, true, 1)
		if derr != nil {
			// An unplaceable cell is a result, not an error: the fabric
			// genuinely cannot carry that load at that depth.
			return row, nil
		}
		row.DESFeasible = true
		row.DES = st.NetReqLat.Quantile(0.95)
		if row.DES > 0 {
			row.RelErr = math.Abs(row.Twin-row.DES) / row.DES
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	// Server grid: train the EPRONS table on its DES grid, then compare
	// every cell with the twin's closed-form pricing at the same core
	// count (quick tables train 4-core servers, not the default 12).
	tcfg := core.DefaultTrainConfig()
	tcfg.Policy = func(m *dvfs.Model) server.Policy { return dvfs.NewEPRONSServer(m, 0.05) }
	tcfg.Workers = cfg.Workers
	if cfg.Quick {
		tcfg.Cores = 4
		tcfg.Utils = []float64{0.10, 0.30, 0.50}
		tcfg.Budgets = []float64{8e-3, 12e-3, 20e-3, 30e-3}
		tcfg.Duration = 20.0 / 3
	}
	table, err := core.TrainServerPowerTable(tcfg)
	if err != nil {
		return nil, err
	}
	stm, err := twin.New(twin.Config{
		CoresPerServer: tcfg.Cores,
		Alpha:          tcfg.Alpha,
		TargetVP:       tcfg.TargetVP,
	})
	if err != nil {
		return nil, err
	}

	sum := &TwinCheckSummary{Rows: netRows}
	for ui, util := range tcfg.Utils {
		for bi, budget := range tcfg.Budgets {
			row := TwinCheckRow{Kind: "server", Util: util, BudgetS: budget, DES: math.NaN(), RelErr: math.NaN()}
			row.DESFeasible = table.OK[ui][bi]
			if row.DESFeasible {
				row.DES = table.PowerW[ui][bi]
			}
			w, ok := stm.Lookup(util, budget)
			row.TwinFeasible = ok
			row.Clamped = !ok
			if ok {
				row.Twin = w
				if row.DESFeasible && row.DES > 0 {
					row.RelErr = math.Abs(w-row.DES) / row.DES
				}
			}
			sum.Rows = append(sum.Rows, row)
		}
	}

	for _, r := range sum.Rows {
		switch {
		case r.Clamped || !r.TwinFeasible:
			sum.Clamped++
			// Out-of-domain: excluded from the bands by construction.
		case !r.DESFeasible:
			// Twin says in-domain but the DES could not run the cell.
			sum.Disagree++
		default:
			sum.InDomain++
			if !math.IsNaN(r.RelErr) {
				if r.Kind == "net" && r.RelErr > sum.NetMaxRel {
					sum.NetMaxRel = r.RelErr
				}
				if r.Kind == "server" && r.RelErr > sum.ServerMaxRel {
					sum.ServerMaxRel = r.RelErr
				}
			}
		}
	}
	return sum, nil
}

// TwinCheckTable renders the validation sweep for the CLIs.
func TwinCheckTable(sum *TwinCheckSummary) *Table {
	t := &Table{
		Title:   "twincheck — closed-form twin vs DES",
		Headers: []string{"kind", "cell", "DES", "twin", "rel err", "domain"},
	}
	fmtVal := func(kind string, v float64) string {
		if math.IsNaN(v) {
			return "—"
		}
		if kind == "net" {
			return fmt.Sprintf("%.1fµs", v*1e6)
		}
		return fmt.Sprintf("%.2fW", v)
	}
	for _, r := range sum.Rows {
		cell := fmt.Sprintf("level %d, bg %.0f%%", r.Level, r.BgUtil*100)
		if r.Kind == "server" {
			cell = fmt.Sprintf("util %.0f%%, budget %.0fms", r.Util*100, r.BudgetS*1e3)
		}
		rel := "—"
		if !math.IsNaN(r.RelErr) {
			rel = fmt.Sprintf("%.1f%%", r.RelErr*100)
		}
		domain := "ok"
		switch {
		case r.Clamped && !r.DESFeasible:
			domain = "CLAMPED (DES infeasible too)"
		case r.Clamped:
			domain = "CLAMPED"
		case !r.DESFeasible:
			domain = "DES infeasible"
		}
		t.AddRow(r.Kind, cell, fmtVal(r.Kind, r.DES), fmtVal(r.Kind, r.Twin), rel, domain)
	}
	return t
}

// TwinCapacityTable answers a standalone what-if sweep on a k-ary fabric —
// the -twin CLI mode. No topology graph is built, so k=74 (a 101,306-host
// data center) answers in milliseconds; the per-query wall time is part of
// the output. Total power scales the server term to every host.
func TwinCapacityTable(k int, bgs []float64, util float64) (*Table, *twin.Model, error) {
	hosts := k * k * k / 4
	tm, err := twin.New(twin.Config{FabricK: k, NumServers: hosts})
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("analytic twin — %d-host what-if (k=%d fat-tree, %s server utilization)",
			hosts, k, Pct(util)),
		Headers: []string{"agg level", "bg", "net p95(µs)", "switches", "net(kW)", "f(GHz)", "total(kW)", "domain", "query(µs)"},
	}
	nl := tm.NumAggregationLevels()
	levels := []int{0, nl / 4, nl / 2, nl - 1}
	seen := map[int]bool{}
	for _, level := range levels {
		if seen[level] {
			continue
		}
		seen[level] = true
		for _, bg := range bgs {
			t0 := time.Now()
			est, err := tm.WhatIf(twin.Query{AggLevel: level, BgUtil: bg, ServerUtil: util})
			dur := time.Since(t0)
			if err != nil {
				return nil, nil, err
			}
			domain := "ok"
			if est.Clamped {
				domain = "CLAMPED"
			} else if !est.Feasible {
				domain = "infeasible"
			}
			t.AddRow(
				fmt.Sprintf("%d", level),
				Pct(bg),
				fmt.Sprintf("%.1f", est.NetTailS*1e6),
				fmt.Sprintf("%d", est.ActiveSwitches),
				fmt.Sprintf("%.1f", est.NetworkPowerW/1e3),
				fmt.Sprintf("%.2f", est.FreqGHz),
				fmt.Sprintf("%.1f", est.TotalPowerW/1e3),
				domain,
				fmt.Sprintf("%.0f", float64(dur.Microseconds())),
			)
		}
	}
	return t, tm, nil
}

// TwinPlanResult is one twin-driven planning run: the closed-form K
// search, its wall time, and the DES-verified argmax neighborhood.
type TwinPlanResult struct {
	Util, Bg float64
	// TwinPlan is the plan the twin-driven search picked; TwinDur is the
	// full inner-loop wall time (all KMax candidates priced analytically).
	TwinPlan *core.Plan
	TwinDur  time.Duration
	// VerifiedK is the best K after re-pricing only {K*-1, K*, K*+1}
	// through the DES-trained server model; VerifyDur is that cost.
	VerifiedK int
	VerifyDur time.Duration
	Agrees    bool
}

// TwinPlanK runs the planner's K search with the twin as the server
// model — every candidate priced in closed form — then DES-verifies only
// the argmax neighborhood through the trained table. This is the paper's
// planner inner loop with the expensive model confined to a spot check.
// desTable may be nil to skip verification (VerifiedK = TwinPlan.K).
func TwinPlanK(ft *fattree.FatTree, pcfg core.Config, tm *twin.Model, desTable core.ServerModel, util, bg float64, workers int) (*TwinPlanResult, error) {
	twinPlanner, err := core.NewPlanner(pcfg, ft, tm)
	if err != nil {
		return nil, err
	}
	twinPlanner.Workers = workers
	flows := jointFlows(ft, util, bg)
	t0 := time.Now()
	plan, err := twinPlanner.PlanK(flows, util)
	twinDur := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := &TwinPlanResult{Util: util, Bg: bg, TwinPlan: plan, TwinDur: twinDur, VerifiedK: plan.K, Agrees: true}
	if desTable == nil {
		return res, nil
	}
	desPlanner, err := core.NewPlanner(pcfg, ft, desTable)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	bestK, bestW := -1, 0.0
	for k := plan.K - 1; k <= plan.K+1; k++ {
		if k < 1 || k > desPlanner.Cfg.KMax {
			continue
		}
		cres, err := consolidate.Greedy(ft, flows, consolidate.Config{ScaleK: float64(k), SafetyMarginBps: desPlanner.Cfg.SafetyMarginBps})
		if err != nil {
			return nil, fmt.Errorf("experiments: verify K=%d: %w", k, err)
		}
		if !cres.Feasible {
			continue
		}
		cand := desPlanner.EvaluateCandidate(k, cres, flows, util)
		if cand.Feasible && (bestK < 0 || cand.TotalPowerW < bestW-1e-9) {
			bestK, bestW = k, cand.TotalPowerW
		}
	}
	res.VerifyDur = time.Since(t0)
	if bestK >= 0 {
		res.VerifiedK = bestK
	}
	res.Agrees = res.VerifiedK == plan.K
	return res, nil
}
