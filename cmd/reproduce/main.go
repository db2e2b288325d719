// Command reproduce is the artifact-evaluation entry point: it regenerates
// every figure of the paper's evaluation in one run, writes each as a CSV
// under -out, and prints a pass/fail summary of the headline shape checks.
//
// Usage:
//
//	reproduce [-out results] [-quick] [-fluid]
//
// -quick (default true) uses the coarse training grids; -quick=false runs
// the full 12-core configuration the EXPERIMENTS.md numbers come from
// (several minutes). -fluid runs the packet simulations (Fig 10/11) with
// the hybrid fluid/packet background engine — much faster, tails within
// the pinned tolerance; off keeps the bit-identical packet-only engine.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"eprons/internal/experiments"
	"eprons/internal/parallel"
)

var outDir string

func writeCSV(name string, t *experiments.Table) {
	path := filepath.Join(outDir, name+".csv")
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	fmt.Printf("  wrote %s (%d rows)\n", path, len(t.Rows))
}

type check struct {
	name string
	ok   bool
	note string
}

func main() {
	out := flag.String("out", "results", "output directory for CSV files")
	quick := flag.Bool("quick", true, "coarse grids (fast); -quick=false reproduces EXPERIMENTS.md exactly")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "sweep/training concurrency (<=1 runs sequentially, figures are identical either way)")
	fluid := flag.Bool("fluid", false, "hybrid fluid/packet background engine for the packet simulations (order-of-magnitude fewer events; off = bit-identical packet-level figures)")
	flag.Parse()
	outDir = *out
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	var checks []check
	add := func(name string, ok bool, note string) {
		checks = append(checks, check{name, ok, note})
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("[%s] %s — %s\n", status, name, note)
	}

	dur := 1.5
	serverDur := 10.0
	if !*quick {
		dur, serverDur = 3, 30
	}

	// Fig 1.
	fmt.Println("Fig 1: utilization-latency knee")
	knee, err := experiments.Fig01Knee([]float64{0.05, 0.20, 0.50, 0.80, 0.90, 0.95}, dur+2, 1)
	if err != nil {
		log.Fatal(err)
	}
	t := &experiments.Table{Title: "Fig 1", Headers: []string{"util", "mean_s", "p95_s", "p99_s"}}
	for _, p := range knee {
		t.AddRow(experiments.F(p.Utilization), experiments.F(p.MeanS), experiments.F(p.P95S), experiments.F(p.P99S))
	}
	writeCSV("fig01_knee", t)
	add("fig01 knee", knee[5].MeanS > 3*knee[1].MeanS, fmt.Sprintf("95%% util latency %.1fx the 20%% latency", knee[5].MeanS/knee[1].MeanS))

	// Fig 2.
	fmt.Println("Fig 2: scale factor example")
	rows2, _, _, err := experiments.Fig02ScaleDemo()
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 2", Headers: []string{"K", "switches", "sharing"}}
	for _, r := range rows2 {
		t.AddRow(experiments.F(r.K), strconv.Itoa(r.ActiveSwitches), strconv.Itoa(r.SharedWithBig))
	}
	writeCSV("fig02_scalefactor", t)
	add("fig02 sharing 2→1→0", rows2[0].SharedWithBig == 2 && rows2[1].SharedWithBig == 1 && rows2[2].SharedWithBig == 0, "K moves sensitive flows off the elephant")

	// Fig 4/5.
	pts4, fMax, fAvg, err := experiments.Fig04ViolationCurves(12e-3, 18e-3)
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 4", Headers: []string{"freq_ghz", "vp_r1", "vp_r2e", "vp_avg"}}
	for _, p := range pts4 {
		t.AddRow(experiments.F(p.FreqGHz), experiments.F(p.VPR1), experiments.F(p.VPR2e), experiments.F(p.AvgVP))
	}
	writeCSV("fig04_vp_curves", t)
	add("fig04 avg-VP below max-VP", fAvg <= fMax, fmt.Sprintf("EPRONS %.1f GHz vs prior work %.1f GHz", fAvg, fMax))

	// Fig 9.
	rows9, err := experiments.Fig09Policies()
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 9", Headers: []string{"level", "switches", "links", "power_w"}}
	for _, r := range rows9 {
		t.AddRow(strconv.Itoa(r.Level), strconv.Itoa(r.ActiveSwitches), strconv.Itoa(r.ActiveLinks), experiments.F(r.NetworkPowerW))
	}
	writeCSV("fig09_policies", t)
	add("fig09 monotone policies", rows9[0].ActiveSwitches == 20 && rows9[3].ActiveSwitches == 13, "20→13 switches, all connected")

	// Fig 10.
	fmt.Println("Fig 10: aggregation latency (packet simulation)")
	cfgNet := experiments.NetLatencyConfig{DurationS: dur, Workers: *workers, Fluid: *fluid}
	rows10, err := experiments.Fig10AggregationLatency([]int{0, 1, 2, 3}, []float64{0.05, 0.20, 0.30}, cfgNet)
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 10", Headers: []string{"level", "bg", "mean_s", "p95_s", "p99_s"}}
	var p95agg0, p95agg3 float64
	for _, r := range rows10 {
		t.AddRow(strconv.Itoa(r.Level), experiments.F(r.BgUtil), experiments.F(r.MeanS), experiments.F(r.P95S), experiments.F(r.P99S))
		if r.BgUtil == 0.30 {
			if r.Level == 0 {
				p95agg0 = r.P95S
			}
			if r.Level == 3 {
				p95agg3 = r.P95S
			}
		}
	}
	writeCSV("fig10_aggregation_latency", t)
	add("fig10 latency grows with aggregation", p95agg3 > p95agg0, fmt.Sprintf("p95 %.0fµs → %.0fµs at 30%% bg", p95agg0*1e6, p95agg3*1e6))

	// Fig 11.
	fmt.Println("Fig 11: scale factor trade-off (packet simulation)")
	rows11, err := experiments.Fig11ScaleFactor([]int{1, 2, 3, 4}, []float64{0.20, 0.30}, cfgNet)
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 11", Headers: []string{"bg", "K", "p95_s", "switches", "feasible"}}
	var k1p95, k4p95 float64
	var k1sw, k4sw int
	for _, r := range rows11 {
		t.AddRow(experiments.F(r.BgUtil), strconv.Itoa(r.K), experiments.F(r.P95S), strconv.Itoa(r.ActiveSwitches), strconv.FormatBool(r.Feasible))
		if r.BgUtil == 0.30 && r.Feasible {
			if r.K == 1 {
				k1p95, k1sw = r.P95S, r.ActiveSwitches
			}
			if r.K == 4 {
				k4p95, k4sw = r.P95S, r.ActiveSwitches
			}
		}
	}
	writeCSV("fig11_scalefactor", t)
	add("fig11 K trades switches for latency", k4sw >= k1sw && k4p95 <= k1p95*1.05,
		fmt.Sprintf("K=1: %d sw/%.0fµs; K=4: %d sw/%.0fµs", k1sw, k1p95*1e6, k4sw, k4p95*1e6))

	// Fig 12.
	fmt.Println("Fig 12: server policies")
	cfgSrv := experiments.DefaultServerExpConfig()
	cfgSrv.DurationS = serverDur
	cfgSrv.Workers = *workers
	if *quick {
		cfgSrv.Cores = 4
	}
	rows12, err := experiments.Fig12bConstraintSweep([]float64{16e-3, 25e-3, 40e-3}, 0.30, cfgSrv)
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 12b", Headers: []string{"policy", "constraint_s", "cpu_w", "miss"}}
	byPol := map[experiments.PolicyName]float64{}
	for _, p := range rows12 {
		t.AddRow(string(p.Policy), experiments.F(p.ConstraintS), experiments.F(p.CPUPowerW), experiments.F(p.MissRate))
		if p.ConstraintS == 16e-3 {
			byPol[p.Policy] = p.CPUPowerW
		}
	}
	writeCSV("fig12b_constraint_sweep", t)
	add("fig12 policy ordering at 16ms",
		byPol[experiments.PolEPRONS] <= byPol[experiments.PolRubik]*1.02 && byPol[experiments.PolRubik] <= byPol[experiments.PolNone]*1.02,
		fmt.Sprintf("eprons %.1fW ≤ rubik %.1fW ≤ none %.1fW", byPol[experiments.PolEPRONS], byPol[experiments.PolRubik], byPol[experiments.PolNone]))

	// Fig 13 + 15 (trained models).
	fmt.Println("training server power tables…")
	eprons, tt, mf, err := experiments.TrainTablesWorkers(*quick, *workers)
	if err != nil {
		log.Fatal(err)
	}
	rows13, err := experiments.Fig13JointPowerScaled(eprons, []float64{0.01, 0.20, 0.35}, []float64{19e-3, 25e-3, 31e-3, 40e-3}, 25, *workers)
	if err != nil {
		log.Fatal(err)
	}
	t = &experiments.Table{Title: "Fig 13", Headers: []string{"bg", "level", "constraint_s", "total_w", "feasible"}}
	agg3Infeasible35 := true
	for _, r := range rows13 {
		t.AddRow(experiments.F(r.BgUtil), strconv.Itoa(r.Level), experiments.F(r.ConstraintS), experiments.F(r.TotalW), strconv.FormatBool(r.Feasible))
		if r.BgUtil == 0.35 && r.Level == 3 && r.Feasible {
			agg3Infeasible35 = false
		}
	}
	writeCSV("fig13_joint_power", t)
	add("fig13 agg3 infeasible at heavy bg", agg3Infeasible35, "deliberately keeping switches on is the only feasible choice")

	// Fig 14.
	times, search, bg := experiments.Fig14Traces(288)
	t = &experiments.Table{Title: "Fig 14", Headers: []string{"t_s", "search", "background"}}
	for i := range times {
		t.AddRow(experiments.F(times[i]), experiments.F(search[i]), experiments.F(bg[i]))
	}
	writeCSV("fig14_traces", t)

	// Fig 15.
	fmt.Println("Fig 15: 24h diurnal run")
	step := 300.0
	if !*quick {
		step = 60
	}
	sum, err := experiments.Fig15DiurnalWorkers(eprons, tt, mf, step, *workers)
	if err != nil {
		log.Fatal(err)
	}
	res := sum.Result
	t = &experiments.Table{Title: "Fig 15", Headers: []string{"t_s", "eprons_w", "timetrader_w", "nopm_w"}}
	for i := range res.Times {
		t.AddRow(experiments.F(res.Times[i]), experiments.F(res.EPRONS.TotalW.V[i]),
			experiments.F(res.TimeTrader.TotalW.V[i]), experiments.F(res.NoPM.TotalW.V[i]))
	}
	writeCSV("fig15_diurnal", t)
	add("fig15 EPRONS ≥ 2x TimeTrader", sum.EPRONSAvgSaving >= 1.5*sum.TTAvgSaving,
		fmt.Sprintf("avg saving %.1f%% vs %.1f%% (peak %.1f%%; paper: 25%%/8%%, peak 31.25%%)",
			sum.EPRONSAvgSaving*100, sum.TTAvgSaving*100, sum.EPRONSPeakSaving*100))

	// Summary.
	failed := 0
	for _, c := range checks {
		if !c.ok {
			failed++
		}
	}
	fmt.Printf("\n%d/%d shape checks passed; CSVs in %s/\n", len(checks)-failed, len(checks), outDir)
	if failed > 0 {
		os.Exit(1)
	}
}
