// Command reproduce regenerates the paper's evaluation (§V): every figure
// table, the solver ablation and the robustness sweeps, printed as tables,
// written as one CSV file per figure under -out, and followed by the shape
// checks of the figures that carry one.
//
// Usage:
//
//	reproduce [-fig all|<name>[,<name>…]] [-quick] [-out results] [-csv] [flags]
//
// Figure names: 1 2 4 5 9 10 11 12a 12b 12c 13 14 15 ablation availability
// overload replica twin twincheck. -fig all (the default) is the paper set
// 1,2,4,9,10,11,12b,13,14,15.
//
// Every figure has two settings. The full setting is the grid and the
// durations EXPERIMENTS.md quotes; -quick shrinks the grids, shortens the
// simulations and trains 4-core server tables. -quick is on by default for
// -fig all (about ten seconds on two cores) and off for named figures;
// -fig all -quick=false runs the whole paper set at full size.
//
// A zero -seed, -duration, -rate, -cores or -step, and an empty -bg, mean
// each figure's own default. The process exits 1 when a shape check fails
// (twincheck's check is its pinned error bands) and 2 on a bad flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"eprons/internal/cluster"
	"eprons/internal/core"
	"eprons/internal/experiments"
	"eprons/internal/parallel"
	"eprons/internal/workload"
)

// opts holds the parsed flags every figure reads.
type opts struct {
	w       io.Writer
	quick   bool
	workers int
	// Zero means the figure's default.
	seed     int64
	duration float64
	rate     float64
	cores    int
	step     float64
	bgs      []float64

	k             int
	fluid         bool
	netScale      float64
	twinK         int
	faultRates    []float64
	overloadMults []float64
	overloadWM    int
	surge         workload.SurgeProfile
	surgeResponse bool
	replicas      []int
	selections    []cluster.SelectionPolicy
	hedge         float64

	eprons, timetrader, maxfreq *core.ServerPowerTable
}

// setting picks a figure's full or quick value.
func setting[T any](o *opts, full, quick T) T {
	if o.quick {
		return quick
	}
	return full
}

// dur is -duration, or the figure's full or quick default.
func (o *opts) dur(full, quick float64) float64 {
	if o.duration != 0 {
		return o.duration
	}
	return setting(o, full, quick)
}

// seedOr1 is -seed for the experiments that take a raw seed.
func (o *opts) seedOr1() int64 {
	if o.seed != 0 {
		return o.seed
	}
	return 1
}

func (o *opts) net(durationS float64) experiments.NetLatencyConfig {
	return experiments.NetLatencyConfig{DurationS: durationS, QueryRate: o.rate, Seed: o.seed,
		Workers: o.workers, K: o.k, Fluid: o.fluid}
}

func (o *opts) server() experiments.ServerExpConfig {
	cfg := experiments.DefaultServerExpConfig()
	cfg.DurationS = o.dur(30, 10)
	cfg.Cores = setting(o, cfg.Cores, 4)
	if o.cores != 0 {
		cfg.Cores = o.cores
	}
	if o.seed != 0 {
		cfg.Seed = o.seed
	}
	cfg.Workers = o.workers
	return cfg
}

// tables trains the three server power tables once per run; Fig 13 and
// Fig 15 share them.
func (o *opts) tables() error {
	if o.eprons != nil {
		return nil
	}
	fmt.Fprintln(o.w, "training server power tables…")
	var err error
	o.eprons, o.timetrader, o.maxfreq, err = experiments.TrainTablesWorkers(o.quick, o.workers)
	return err
}

// check is one shape check: an ordering or ratio the paper's figure shows.
type check struct {
	name string
	ok   bool
	note string
}

// output is what one figure prints: its tables, an optional note, and an
// optional shape check.
type output struct {
	tables []*experiments.Table
	note   string
	check  *check
}

type figure struct {
	name string
	csv  string // CSV file name under -out, without extension
	run  func(o *opts) (*output, error)
}

// find returns the first row match accepts. Shape checks look rows up by
// value, so a row missing from the grid fails the check instead of
// reading as zero.
func find[T any](rows []T, match func(T) bool) (T, bool) {
	for _, r := range rows {
		if match(r) {
			return r, true
		}
	}
	var zero T
	return zero, false
}

var paperSet = []string{"1", "2", "4", "9", "10", "11", "12b", "13", "14", "15"}

var figures = []figure{
	{"1", "fig01_knee", func(o *opts) (*output, error) {
		utils := setting(o, []float64{0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.85, 0.90, 0.93, 0.95},
			[]float64{0.05, 0.20, 0.50, 0.80, 0.90, 0.95})
		pts, err := experiments.Fig01Knee(utils, o.dur(5, 3.5), o.seedOr1())
		if err != nil {
			return nil, err
		}
		c := &check{name: "fig01 knee", note: "grid lacks the 20% or 95% utilization point"}
		lo, okLo := find(pts, func(p experiments.KneePoint) bool { return p.Utilization == 0.20 })
		hi, okHi := find(pts, func(p experiments.KneePoint) bool { return p.Utilization == 0.95 })
		if okLo && okHi {
			c.ok = hi.MeanS > 3*lo.MeanS
			c.note = fmt.Sprintf("95%% util latency %.1fx the 20%% latency", hi.MeanS/lo.MeanS)
		}
		return &output{tables: []*experiments.Table{experiments.Fig01Table(pts)}, check: c}, nil
	}},
	{"2", "fig02_scalefactor", func(o *opts) (*output, error) {
		rows, ft, results, err := experiments.Fig02ScaleDemo()
		if err != nil {
			return nil, err
		}
		c := &check{name: "fig02 sharing 2→1→0", note: "K moves sensitive flows off the elephant"}
		c.ok = true
		for k, want := range map[float64]int{1: 2, 2: 1, 3: 0} {
			r, found := find(rows, func(r experiments.Fig02Row) bool { return r.K == k })
			c.ok = c.ok && found && r.SharedWithBig == want
		}
		return &output{tables: []*experiments.Table{experiments.Fig02Table(rows), experiments.Fig02PathTable(ft, results[3], 3)}, check: c}, nil
	}},
	{"4", "fig04_vp_curves", func(o *opts) (*output, error) {
		pts, fMax, fAvg, err := experiments.Fig04ViolationCurves(12e-3, 18e-3)
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.Fig04Table(pts)}, check: &check{
			name: "fig04 avg-VP below max-VP",
			ok:   fAvg > 0 && fAvg <= fMax, // a frequency of -1 means the 5% target is never met
			note: fmt.Sprintf("EPRONS %.1f GHz vs prior work %.1f GHz", fAvg, fMax),
		}}, nil
	}},
	{"5", "fig05_equivalent_vp", func(o *opts) (*output, error) {
		var omegas []float64
		for w := 2e-3; w <= 36e-3; w += 2e-3 {
			omegas = append(omegas, w)
		}
		pts, err := experiments.Fig05EquivalentCCDF(omegas)
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.Fig05Table(pts)}}, nil
	}},
	{"9", "fig09_policies", func(o *opts) (*output, error) {
		rows, err := experiments.Fig09Policies()
		if err != nil {
			return nil, err
		}
		r0, ok0 := find(rows, func(r experiments.Fig09Row) bool { return r.Level == 0 })
		r3, ok3 := find(rows, func(r experiments.Fig09Row) bool { return r.Level == 3 })
		ok := ok0 && ok3 && r0.ActiveSwitches == 20 && r3.ActiveSwitches == 13
		for i, r := range rows {
			ok = ok && r.Connected && (i == 0 || r.ActiveSwitches <= rows[i-1].ActiveSwitches)
		}
		return &output{tables: []*experiments.Table{experiments.Fig09Table(rows)}, check: &check{
			name: "fig09 monotone policies", ok: ok, note: "20→13 switches, all connected",
		}}, nil
	}},
	{"10", "fig10_aggregation_latency", func(o *opts) (*output, error) {
		bgs := setting(o, []float64{0.05, 0.10, 0.20, 0.30}, []float64{0.05, 0.20, 0.30})
		rows, err := experiments.Fig10AggregationLatency([]int{0, 1, 2, 3}, bgs, o.net(o.dur(3, 1.5)))
		if err != nil {
			return nil, err
		}
		at := func(level int) (experiments.Fig10Row, bool) {
			return find(rows, func(r experiments.Fig10Row) bool { return r.BgUtil == 0.30 && r.Level == level })
		}
		c := &check{name: "fig10 latency grows with aggregation", note: "grid lacks the 30% bg level-0 or level-3 cell"}
		if r0, ok0 := at(0); ok0 {
			if r3, ok3 := at(3); ok3 {
				c.ok = r3.P95S > r0.P95S
				c.note = fmt.Sprintf("p95 %.0fµs → %.0fµs at 30%% bg", r0.P95S*1e6, r3.P95S*1e6)
			}
		}
		return &output{tables: []*experiments.Table{experiments.Fig10Table(rows)}, check: c}, nil
	}},
	{"11", "fig11_scalefactor", func(o *opts) (*output, error) {
		ks := setting(o, []int{1, 2, 3, 4, 5, 6}, []int{1, 2, 3, 4})
		bgs := setting(o, []float64{0.05, 0.10, 0.20, 0.30}, []float64{0.20, 0.30})
		rows, err := experiments.Fig11ScaleFactor(ks, bgs, o.net(o.dur(3, 1.5)))
		if err != nil {
			return nil, err
		}
		at := func(k int) (experiments.Fig11Row, bool) {
			return find(rows, func(r experiments.Fig11Row) bool { return r.BgUtil == 0.30 && r.K == k && r.Feasible })
		}
		c := &check{name: "fig11 K trades switches for latency", note: "grid lacks a feasible 30% bg K=1 or K=4 cell"}
		if k1, ok1 := at(1); ok1 {
			if k4, ok4 := at(4); ok4 {
				c.ok = k4.ActiveSwitches >= k1.ActiveSwitches && k4.P95S <= k1.P95S*1.05
				c.note = fmt.Sprintf("K=1: %d sw/%.0fµs; K=4: %d sw/%.0fµs", k1.ActiveSwitches, k1.P95S*1e6, k4.ActiveSwitches, k4.P95S*1e6)
			}
		}
		return &output{tables: []*experiments.Table{experiments.Fig11Table(rows)}, check: c}, nil
	}},
	{"12a", "fig12a_utilization_sweep", func(o *opts) (*output, error) {
		pts, err := experiments.Fig12aUtilizationSweep([]float64{0.10, 0.20, 0.30, 0.40, 0.50}, 30e-3, o.server())
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.Fig12aTable(pts)}}, nil
	}},
	{"12b", "fig12b_constraint_sweep", func(o *opts) (*output, error) {
		constraints := setting(o, []float64{16e-3, 19e-3, 22e-3, 25e-3, 28e-3, 31e-3, 34e-3, 40e-3}, []float64{16e-3, 25e-3, 40e-3})
		pts, err := experiments.Fig12bConstraintSweep(constraints, 0.30, o.server())
		if err != nil {
			return nil, err
		}
		power := map[experiments.PolicyName]float64{}
		for _, p := range pts {
			if p.ConstraintS == 16e-3 {
				power[p.Policy] = p.CPUPowerW
			}
		}
		e, okE := power[experiments.PolEPRONS]
		r, okR := power[experiments.PolRubik]
		n, okN := power[experiments.PolNone]
		return &output{tables: []*experiments.Table{experiments.Fig12bTable(pts)}, check: &check{
			name: "fig12 policy ordering at 16ms",
			ok:   okE && okR && okN && e <= r*1.02 && r <= n*1.02,
			note: fmt.Sprintf("eprons %.1fW ≤ rubik %.1fW ≤ none %.1fW", e, r, n),
		}}, nil
	}},
	{"12c", "fig12c_eprons_grid", func(o *opts) (*output, error) {
		pts, err := experiments.Fig12cEPRONSGrid([]float64{0.10, 0.20, 0.30, 0.40, 0.50},
			[]float64{16e-3, 20e-3, 25e-3, 30e-3, 40e-3}, o.server())
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.Fig12cTable(pts)}}, nil
	}},
	{"13", "fig13_joint_power", func(o *opts) (*output, error) {
		bgs := o.bgs
		if bgs == nil {
			bgs = setting(o, []float64{0.01, 0.20, 0.50}, []float64{0.01, 0.20, 0.35})
		}
		constraints := setting(o, []float64{19e-3, 22e-3, 25e-3, 28e-3, 31e-3, 34e-3, 37e-3, 40e-3}, []float64{19e-3, 25e-3, 31e-3, 40e-3})
		if err := o.tables(); err != nil {
			return nil, err
		}
		rows, err := experiments.Fig13JointPowerScaled(o.eprons, bgs, constraints, o.netScale, o.workers)
		if err != nil {
			return nil, err
		}
		heavy := bgs[0]
		for _, bg := range bgs {
			heavy = max(heavy, bg)
		}
		cells, feasible := 0, false
		for _, r := range rows {
			if r.BgUtil == heavy && r.Level == 3 {
				cells++
				feasible = feasible || r.Feasible
			}
		}
		return &output{tables: experiments.Fig13Tables(rows, bgs, constraints), check: &check{
			name: "fig13 agg3 infeasible at heavy bg",
			ok:   cells > 0 && !feasible,
			note: "deliberately keeping switches on is the only feasible choice",
		}}, nil
	}},
	{"14", "fig14_traces", func(o *opts) (*output, error) {
		return &output{tables: []*experiments.Table{experiments.Fig14Table(experiments.Fig14Traces(setting(o, 48, 288)))}}, nil
	}},
	{"15", "fig15_diurnal", func(o *opts) (*output, error) {
		step := o.step
		if step == 0 {
			step = setting(o, 60.0, 300.0)
		}
		if err := o.tables(); err != nil {
			return nil, err
		}
		sum, err := experiments.Fig15DiurnalWorkers(o.eprons, o.timetrader, o.maxfreq, step, o.workers)
		if err != nil {
			return nil, err
		}
		return &output{tables: experiments.Fig15Tables(sum, step), check: &check{
			name: "fig15 EPRONS ≥ 1.5x TimeTrader",
			ok:   sum.EPRONSAvgSaving >= 1.5*sum.TTAvgSaving,
			note: fmt.Sprintf("avg saving %.1f%% vs %.1f%% (peak %.1f%%; paper: 25%%/8%%, peak 31.25%%)",
				sum.EPRONSAvgSaving*100, sum.TTAvgSaving*100, sum.EPRONSPeakSaving*100),
		}}, nil
	}},
	{"ablation", "ablation_greedy_vs_exact", func(o *opts) (*output, error) {
		rows, err := experiments.AblationHeuristicVsExact([]int{3, 5, 8}, o.seedOr1(), 2000)
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.AblationTable(rows)}, note: experiments.AblationTimings(rows)}, nil
	}},
	{"availability", "availability", func(o *opts) (*output, error) {
		rows, err := experiments.AvailabilitySweep(o.faultRates, experiments.AvailabilityConfig{
			DurationS: o.duration, QueryRate: o.rate, Seed: o.seed, Workers: o.workers,
		})
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.AvailabilityTable(rows)}}, nil
	}},
	{"overload", "overload", func(o *opts) (*output, error) {
		rows, err := experiments.OverloadSweep(o.overloadMults, experiments.OverloadConfig{
			DurationS: o.duration, BaseRate: o.rate, Profile: o.surge, SurgeResponse: o.surgeResponse,
			HighWM: o.overloadWM, Seed: o.seed, Workers: o.workers,
		})
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.OverloadTable(rows)}}, nil
	}},
	{"replica", "replica", func(o *opts) (*output, error) {
		rows, err := experiments.ReplicaSweep(o.replicas, o.selections, o.faultRates, experiments.ReplicaConfig{
			DurationS: o.duration, QueryRate: o.rate, HedgeDelayS: o.hedge, Seed: o.seed, Workers: o.workers,
		})
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.ReplicaTable(rows)}}, nil
	}},
	{"twin", "twin_capacity", func(o *opts) (*output, error) {
		bgs := o.bgs
		if bgs == nil {
			bgs = []float64{0.01, 0.20, 0.50}
		}
		t, timing, err := experiments.TwinCapacityTable(o.twinK, bgs, 0.30)
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{t}, note: timing + `
error bands (validated against the DES on the k=4 Fig 10 grid, see -fig twincheck):
  network p95: twin within 0.6x relative error in-domain (consistently optimistic);
  server power: within 0.45x relative error (consistently conservative).
rows marked CLAMPED are outside the validated domain — the bands do not apply there.`}, nil
	}},
	{"twincheck", "twincheck", func(o *opts) (*output, error) {
		sum, err := experiments.TwinCheck(experiments.TwinCheckConfig{Net: o.net(o.duration), Quick: o.quick, Workers: o.workers})
		if err != nil {
			return nil, err
		}
		return &output{tables: []*experiments.Table{experiments.TwinCheckTable(sum)}, check: &check{
			name: "twincheck in-domain error bands",
			ok:   sum.NetMaxRel <= experiments.TwinNetRelBand && sum.ServerMaxRel <= experiments.TwinServerRelBand,
			note: fmt.Sprintf("in-domain cells %d (net max rel err %.1f%%, server max rel err %.1f%%); out-of-domain cells flagged: %d; feasibility disagreements: %d",
				sum.InDomain, sum.NetMaxRel*100, sum.ServerMaxRel*100, sum.Clamped, sum.Disagree),
		}}, nil
	}},
}

// lookup resolves a -fig value to figures in the order given.
func lookup(spec string) ([]figure, error) {
	var names []string
	for _, name := range strings.Split(spec, ",") {
		if name = strings.TrimSpace(name); name == "all" {
			names = append(names, paperSet...)
		} else {
			names = append(names, name)
		}
	}
	var out []figure
	for _, name := range names {
		f, ok := find(figures, func(f figure) bool { return f.name == name })
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", name)
		}
		out = append(out, f)
	}
	return out, nil
}

// run regenerates figs in order: it prints each table (as CSV when csv is
// set), writes each figure's tables to <out>/<csv>.csv unless out is
// empty, and prints the shape checks. It returns the number of failed
// checks.
func run(figs []figure, o *opts, out string, csv bool) (failed int, err error) {
	checks := 0
	for _, f := range figs {
		res, err := f.run(o)
		if err != nil {
			return 0, fmt.Errorf("fig %s: %w", f.name, err)
		}
		var file strings.Builder
		rows := 0
		for _, t := range res.tables {
			fmt.Fprintln(o.w, experiments.Render(t, csv))
			file.WriteString(t.CSV())
			rows += len(t.Rows)
		}
		if res.note != "" {
			fmt.Fprintln(o.w, res.note)
		}
		if out != "" {
			path := filepath.Join(out, f.csv+".csv")
			if err := os.WriteFile(path, []byte(file.String()), 0o644); err != nil {
				return 0, err
			}
			fmt.Fprintf(o.w, "  wrote %s (%d rows)\n", path, rows)
		}
		if c := res.check; c != nil {
			checks++
			status := "PASS"
			if !c.ok {
				status = "FAIL"
				failed++
			}
			fmt.Fprintf(o.w, "[%s] %s — %s\n", status, c.name, c.note)
		}
	}
	if checks > 0 {
		fmt.Fprintf(o.w, "\n%d/%d shape checks passed", checks-failed, checks)
		if out != "" {
			fmt.Fprintf(o.w, "; CSVs in %s/", out)
		}
		fmt.Fprintln(o.w)
	}
	return failed, nil
}

// parseList splits a comma-separated flag value; empty yields nil.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func main() {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	fig := flag.String("fig", "all", "comma-separated figures: all ("+strings.Join(paperSet, ",")+") or any of "+strings.Join(names, ", "))
	quick := flag.Bool("quick", false, "coarse grids, short simulations, 4-core server tables (on by default for -fig all)")
	out := flag.String("out", "results", "directory for one CSV file per figure (empty writes none)")
	csvOut := flag.Bool("csv", false, "print tables as CSV")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "concurrency for sweeps, table training and replays (<=1 runs sequentially; results are identical either way)")
	seed := flag.Int64("seed", 0, "random seed (0: each figure's default, 1)")
	duration := flag.Float64("duration", 0, "simulated seconds per point or cell (0: each figure's default)")
	rate := flag.Float64("rate", 0, "query rate in queries/s; for -fig overload the 1x base rate (0: each figure's default)")
	k := flag.Int("k", 4, "fat-tree arity of -fig 10, 11 and twincheck (background flows grow as k^2)")
	fluid := flag.Bool("fluid", false, "hybrid fluid/packet background engine for the packet simulations (order-of-magnitude fewer events; off = bit-identical packet-level figures)")
	bg := flag.String("bg", "", "background utilizations of -fig 13 and twin (empty: 0.01,0.20,0.50; 0.01,0.20,0.35 for -fig 13 with -quick)")
	netScale := flag.Float64("netscale", 25, "Fig 13 network-latency calibration: 25 matches the paper's MiniNet magnitudes, 1 = clean simulator")
	twinK := flag.Int("twink", 74, "fat-tree arity of -fig twin (74 = 101,306 hosts)")
	faultRates := flag.String("faultrates", "0,0.5,1,2", "fault rates of -fig availability and replica (fail events/s, split between switch crashes and link flaps)")
	overloadMults := flag.String("overloadmults", "0.5,1,2,3", "offered-load multipliers of -fig overload (x base rate; >1 arrives as a flash crowd)")
	overloadWM := flag.Int("overloadwm", 0, "admission high watermark of -fig overload (0 derives the SLA-aware default)")
	surge := flag.String("surge", "step", "flash-crowd profile of -fig overload: step, spike or ramp")
	surgeResponse := flag.Bool("surgeresponse", true, "let the controller re-expand the fabric on sustained saturation (-fig overload)")
	replicas := flag.String("replicas", "1,3", "replication factors of -fig replica")
	selection := flag.String("selection", "primary", "replica selection policies of -fig replica: primary, p2c and/or hedged")
	hedge := flag.Float64("hedge", 0, "hedged-policy duplicate delay in seconds (0 = track the observed sub-query p95)")
	cores := flag.Int("cores", 0, "cores per server of the Fig 12 sweeps (0: 12; 4 with -quick)")
	step := flag.Float64("step", 0, "Fig 15 replay step in seconds (0: 60; 300 with -quick)")
	flag.Parse()

	figs, err := lookup(*fig)
	flagErr := func(name string, e error) {
		if e != nil {
			fmt.Fprintf(os.Stderr, "reproduce: %s: %v\n", name, e)
			flag.Usage()
			os.Exit(2)
		}
	}
	flagErr("-fig", err)
	o := &opts{w: os.Stdout, quick: *quick, workers: *workers, seed: *seed, duration: *duration, rate: *rate,
		cores: *cores, step: *step, k: *k, fluid: *fluid, netScale: *netScale, twinK: *twinK,
		overloadWM: *overloadWM, surgeResponse: *surgeResponse, hedge: *hedge}
	// The paper set defaults to its quick grid; named figures to their full one.
	quickSet := false
	flag.Visit(func(f *flag.Flag) { quickSet = quickSet || f.Name == "quick" })
	if *fig == "all" && !quickSet {
		o.quick = true
	}
	o.bgs, err = parseList(*bg, parseFloat)
	flagErr("-bg", err)
	o.faultRates, err = parseList(*faultRates, parseFloat)
	flagErr("-faultrates", err)
	o.overloadMults, err = parseList(*overloadMults, parseFloat)
	flagErr("-overloadmults", err)
	o.replicas, err = parseList(*replicas, strconv.Atoi)
	flagErr("-replicas", err)
	o.selections, err = parseList(*selection, cluster.ParseSelection)
	flagErr("-selection", err)
	o.surge, err = workload.ParseSurgeProfile(*surge)
	flagErr("-surge", err)

	stopProfiles := profile(*cpuProfile, *memProfile)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	failed, err := run(figs, o, *out, *csvOut)
	stopProfiles()
	if err != nil {
		log.Fatal(err)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// profile starts a CPU profile to cpu and returns the function that stops
// it and writes a heap profile to mem; an empty name skips that profile.
func profile(cpu, mem string) (stop func()) {
	var cpuFile *os.File
	if cpu != "" {
		var err error
		if cpuFile, err = os.Create(cpu); err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			log.Fatal(err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				log.Fatal(err)
			}
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}
}
