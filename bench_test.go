// Benchmarks that regenerate every table and figure of the paper's
// evaluation (one benchmark per figure, plus the DESIGN.md ablations).
// Key series values are attached as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced numbers alongside timing. The cmd/ tools print the
// same data as full tables.
package eprons

import (
	"sync"
	"testing"

	"eprons/internal/consolidate"
	"eprons/internal/core"
	"eprons/internal/dvfs"
	"eprons/internal/experiments"
	"eprons/internal/fattree"
	"eprons/internal/fft"
	"eprons/internal/flow"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// tables caches the trained server power models across benchmarks (the
// quick grid: 3 utilizations × 4 budgets, 4 cores).
var (
	tablesOnce sync.Once
	tblEPRONS  *core.ServerPowerTable
	tblTT      *core.ServerPowerTable
	tblMF      *core.ServerPowerTable
	tablesErr  error
)

func trainedTables(b *testing.B) (*core.ServerPowerTable, *core.ServerPowerTable, *core.ServerPowerTable) {
	b.Helper()
	tablesOnce.Do(func() {
		tblEPRONS, tblTT, tblMF, tablesErr = experiments.TrainTables(true)
	})
	if tablesErr != nil {
		b.Fatal(tablesErr)
	}
	return tblEPRONS, tblTT, tblMF
}

func BenchmarkFig01UtilizationLatencyKnee(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig01Knee([]float64{0.20, 0.50, 0.90}, 2, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].MeanS*1e6, "us-mean@20%")
		b.ReportMetric(pts[2].MeanS*1e6, "us-mean@90%")
		b.ReportMetric(pts[2].MeanS/pts[0].MeanS, "knee-ratio")
	}
}

func BenchmarkFig02ScaleFactorExample(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, _, err := experiments.Fig02ScaleDemo()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].ActiveSwitches), "switches@K=1")
		b.ReportMetric(float64(rows[2].ActiveSwitches), "switches@K=3")
		b.ReportMetric(float64(rows[2].SharedWithBig), "sharing@K=3")
	}
}

func BenchmarkFig04ViolationProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, fMax, fAvg, err := experiments.Fig04ViolationCurves(12e-3, 18e-3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fMax, "GHz-maxvp")
		b.ReportMetric(fAvg, "GHz-avgvp")
	}
}

func BenchmarkFig08SwitchPowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig08SwitchPower()
		b.ReportMetric(pts[0].PowerW, "W-idle")
		b.ReportMetric(pts[len(pts)-1].PowerW-pts[0].PowerW, "W-delta")
	}
}

func BenchmarkFig09AggregationPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig09Policies()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].ActiveSwitches), "switches@agg0")
		b.ReportMetric(float64(rows[3].ActiveSwitches), "switches@agg3")
		b.ReportMetric(rows[3].NetworkPowerW, "W-net@agg3")
	}
}

func BenchmarkFig10AggregationLatency(b *testing.B) {
	cfg := experiments.NetLatencyConfig{DurationS: 1.5}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P95S*1e6, "us-p95@agg0")
		b.ReportMetric(rows[1].P95S*1e6, "us-p95@agg3")
	}
}

// BenchmarkFig10EndToEndFluid is the same Fig 10 cell as
// BenchmarkFig10AggregationLatency with the hybrid fluid/packet background
// engine on: the 12 k=4 elephants become analytic link reservations, so the
// end-to-end figure regeneration should run several times faster while the
// reported tails stay within the pinned tolerance
// (experiments.TestFig10FluidTolerance).
func BenchmarkFig10EndToEndFluid(b *testing.B) {
	cfg := experiments.NetLatencyConfig{DurationS: 1.5, Fluid: true}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P95S*1e6, "us-p95@agg0")
		b.ReportMetric(rows[1].P95S*1e6, "us-p95@agg3")
	}
}

// BenchmarkFig10K8 regenerates a Fig 10 cell on the 8-ary fat-tree
// (128 hosts, 80 switches, 56 background elephants) — the packet-level
// scale point the fluid engine unlocks. Per-pod flow counts grow as k², so
// without fluid folding this cell is dominated by elephant packet events.
func BenchmarkFig10K8(b *testing.B) {
	cfg := experiments.NetLatencyConfig{DurationS: 0.75, K: 8, Fluid: true}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P95S*1e6, "us-p95@agg0")
		b.ReportMetric(rows[1].P95S*1e6, "us-p95@agg3")
	}
}

// k16Cfg is the shared configuration of the k=16 scale benchmarks: a
// 1024-host, 320-switch fat-tree at packet fidelity. The fluid engine
// folds the 240 background elephants and ECMPQueries routes query pairs
// by direct hash-probed path construction (enumerating 64 candidate paths
// per pair through the consolidation placer would dominate the run): only
// the pairs the queries use resolve, on demand, out of ~1M. Query traffic
// itself stays packet-level.
func k16Cfg() experiments.NetLatencyConfig {
	return experiments.NetLatencyConfig{
		DurationS: 0.2, K: 16, Fluid: true, ECMPQueries: true,
	}
}

// BenchmarkFig10K16 regenerates a Fig 10 cell on the 16-ary fat-tree.
func BenchmarkFig10K16(b *testing.B) {
	cfg := k16Cfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P95S*1e6, "us-p95@agg0")
		b.ReportMetric(rows[1].P95S*1e6, "us-p95@agg3")
	}
}

// BenchmarkFig10K32 regenerates a Fig 10 cell on the 32-ary fat-tree:
// 8192 hosts, 1280 switches, ~67M ordered host pairs. This scale is only
// reachable through the flyweight route plane — ECMP routing uses the
// on-demand resolver (no precomputed all-pairs route table) and each
// resolved route interns into the shared segment arena as a 12-byte ref,
// so the route-plane footprint is the segments actually exercised by
// traffic, not the pair space.
func BenchmarkFig10K32(b *testing.B) {
	cfg := experiments.NetLatencyConfig{
		DurationS: 0.05, K: 32, Fluid: true, ECMPQueries: true,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P95S*1e6, "us-p95@agg0")
		b.ReportMetric(rows[1].P95S*1e6, "us-p95@agg3")
	}
}

func BenchmarkFig11ScaleFactorTradeoff(b *testing.B) {
	cfg := experiments.NetLatencyConfig{DurationS: 1.5}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11ScaleFactor([]int{1, 4}, []float64{0.30}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].P95S*1e6, "us-p95@K1")
		b.ReportMetric(rows[1].P95S*1e6, "us-p95@K4")
		b.ReportMetric(float64(rows[1].ActiveSwitches-rows[0].ActiveSwitches), "extra-switches")
	}
}

func benchServerCfg() experiments.ServerExpConfig {
	cfg := experiments.DefaultServerExpConfig()
	cfg.Cores = 4
	cfg.DurationS = 10
	return cfg
}

func BenchmarkFig12aUtilizationPower(b *testing.B) {
	cfg := benchServerCfg()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12aUtilizationSweep([]float64{0.30}, 15e-3, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			switch p.Policy {
			case experiments.PolNone:
				b.ReportMetric(p.CPUPowerW, "W-none")
			case experiments.PolRubik:
				b.ReportMetric(p.CPUPowerW, "W-rubik")
			case experiments.PolEPRONS:
				b.ReportMetric(p.CPUPowerW, "W-eprons")
			}
		}
	}
}

func BenchmarkFig12bConstraintPower(b *testing.B) {
	cfg := benchServerCfg()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12bConstraintSweep([]float64{16e-3, 30e-3}, 0.30, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pts {
			if p.Policy == experiments.PolEPRONS {
				if p.ConstraintS == 16e-3 {
					b.ReportMetric(p.CPUPowerW, "W-eprons@16ms")
				} else {
					b.ReportMetric(p.CPUPowerW, "W-eprons@30ms")
				}
			}
		}
	}
}

func BenchmarkFig12cEPRONSGrid(b *testing.B) {
	cfg := benchServerCfg()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig12cEPRONSGrid([]float64{0.10, 0.50}, []float64{16e-3, 30e-3}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].CPUPowerW, "W@10%-16ms")
		b.ReportMetric(pts[len(pts)-1].CPUPowerW, "W@50%-30ms")
	}
}

func BenchmarkFig13JointPower(b *testing.B) {
	eprons, _, _ := trainedTables(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13JointPower(eprons, []float64{0.20}, []float64{19e-3, 31e-3, 40e-3})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ConstraintS == 40e-3 && r.Feasible {
				switch r.Level {
				case 0:
					b.ReportMetric(r.TotalW, "W@agg0-40ms")
				case 3:
					b.ReportMetric(r.TotalW, "W@agg3-40ms")
				}
			}
		}
	}
}

func BenchmarkFig14DiurnalTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, search, bg := experiments.Fig14Traces(1440)
		b.ReportMetric(search[720], "peak-load")
		b.ReportMetric(bg[0], "night-bg")
	}
}

func BenchmarkFig15DiurnalSavings(b *testing.B) {
	eprons, tt, mf := trainedTables(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := experiments.Fig15Diurnal(eprons, tt, mf, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sum.EPRONSAvgSaving*100, "pct-avg-eprons")
		b.ReportMetric(sum.EPRONSPeakSaving*100, "pct-peak-eprons")
		b.ReportMetric(sum.TTAvgSaving*100, "pct-avg-timetrader")
	}
}

func BenchmarkAblationAvgVsMaxVP(b *testing.B) {
	cfg := benchServerCfg()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationAvgVsMaxVP(0.40, 15e-3, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Variant {
			case "max-vp fifo (rubik+)":
				b.ReportMetric(r.CPUPowerW, "W-maxvp")
			case "avg-vp edf (eprons)":
				b.ReportMetric(r.CPUPowerW, "W-avgvp-edf")
			case "avg-vp fifo":
				b.ReportMetric(r.CPUPowerW, "W-avgvp-fifo")
			}
		}
	}
}

func BenchmarkAblationHeuristicVsExact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationHeuristicVsExact([]int{3}, 1, 800)
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(float64(r.GreedySwitches), "switches-greedy")
		b.ReportMetric(float64(r.ExactSwitches), "switches-exact")
		b.ReportMetric(float64(r.ExactDur.Microseconds())/float64(r.GreedyDur.Microseconds()+1), "slowdown-exact")
	}
}

func BenchmarkAblationConvolution(b *testing.B) {
	n := 2048
	a := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1 / float64(n)
		c[i] = 1 / float64(n)
	}
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.Convolve(a, c)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fft.ConvolveDirect(a, c)
		}
	})
}

// BenchmarkCorePowerModel exercises the DVFS power curve (sanity metric:
// the measured endpoints).
func BenchmarkCorePowerModel(b *testing.B) {
	grid := power.FreqGrid()
	s := 0.0
	for i := 0; i < b.N; i++ {
		for _, f := range grid {
			s += power.CoreActiveW(f)
		}
	}
	b.ReportMetric(power.CoreActiveW(power.FMinGHz), "W@1.2GHz")
	b.ReportMetric(power.CoreActiveW(power.FMaxGHz), "W@2.7GHz")
	_ = s
}

// BenchmarkAblationSleepState measures the DynSleep-style extension: at low
// utilization, letting idle cores sleep cuts CPU power below DVFS alone.
func BenchmarkAblationSleepState(b *testing.B) {
	run := func(sleep bool) float64 {
		eng := sim.New()
		base, err := workload.ServiceDist(workload.DefaultServiceConfig())
		if err != nil {
			b.Fatal(err)
		}
		srv, err := server.New(eng, server.Config{
			Cores: 4, Alpha: 0.9, FMaxGHz: power.FMaxGHz,
			PolicyFactory: func(int) server.Policy {
				m, err := dvfs.NewModel(base, 0.9, power.FMaxGHz)
				if err != nil {
					b.Fatal(err)
				}
				return dvfs.NewEPRONSServer(m, 0.05)
			},
			Sleep: sleep,
		})
		if err != nil {
			b.Fatal(err)
		}
		arr := rng.Derive(3, "sleep-bench")
		smp := workload.NewSampler(base, 4)
		rate := server.RateForUtilization(0.10, 4, base.Mean())
		var id int64
		var arrive func()
		arrive = func() {
			now := eng.Now()
			id++
			srv.Enqueue(&server.Request{ID: id, Arrival: now, BaseServiceS: smp.Draw(),
				ServerDeadline: now + 25e-3, SlackDeadline: now + 25e-3})
			if now < 10 {
				eng.After(arr.Exp(1/rate), arrive)
			}
		}
		arrive()
		eng.Run(12)
		eng.RunAll()
		return srv.CPUPowerW(0, eng.Now())
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(false), "W-dvfs-only")
		b.ReportMetric(run(true), "W-dvfs+sleep")
	}
}

// BenchmarkScalabilityGreedyK8 consolidates a realistic mix on an 8-ary
// fat-tree (128 hosts, 80 switches) — the paper's future-work scale.
func BenchmarkScalabilityGreedyK8(b *testing.B) {
	cfg := fattree.DefaultConfig()
	cfg.K = 8
	ft, err := fattree.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	stream := rng.Derive(7, "k8-bench")
	var flows []flow.Flow
	// Cap per-host offered load below access-link capacity so the instance
	// is always placeable (randomly stacked elephants would otherwise
	// oversubscribe a host NIC, which no consolidator can fix).
	out := map[topology.NodeID]float64{}
	in := map[topology.NodeID]float64{}
	for i := 0; i < 400; i++ {
		src := ft.Hosts[stream.Intn(len(ft.Hosts))]
		dst := ft.Hosts[stream.Intn(len(ft.Hosts))]
		if src == dst {
			continue
		}
		class := flow.LatencySensitive
		demand := 5e6 + stream.Float64()*20e6
		if stream.Intn(4) == 0 {
			class = flow.Background
			demand = 100e6 + stream.Float64()*200e6
		}
		eff := 2 * demand // matches the bench's ScaleK=2 reservation bound
		if class == flow.Background {
			eff = demand
		}
		if out[src]+eff > 700e6 || in[dst]+eff > 700e6 {
			continue
		}
		out[src] += eff
		in[dst] += eff
		flows = append(flows, flow.Flow{ID: flow.ID(i), Src: src, Dst: dst, DemandBps: demand, Class: class})
	}
	ccfg := consolidate.Config{ScaleK: 2, SafetyMarginBps: 50e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := consolidate.Greedy(ft, flows, ccfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Feasible {
			b.Fatal("k=8 consolidation infeasible")
		}
		b.ReportMetric(float64(res.Active.ActiveSwitches()), "switches-on")
		b.ReportMetric(float64(ft.NumSwitches()), "switches-total")
	}
}

func BenchmarkFig05EquivalentRequests(b *testing.B) {
	omegas := []float64{4e-3, 12e-3, 24e-3}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig05EquivalentCCDF(omegas)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[1].VPR1e*100, "pct-vp-r1e@12ms")
		b.ReportMetric(pts[1].VPR3e*100, "pct-vp-r3e@12ms")
	}
}
