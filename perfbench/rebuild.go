package main

import (
	"fmt"
	"math"
	"time"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/core"
	"eprons/internal/dvfs"
	"eprons/internal/experiments"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/netsim"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	wl "eprons/internal/workload"
)

// The traced run recomputes the Fig 10 cells and the Fig 15 pipeline from
// the layers' exported calls, mirroring experiments.Fig10AggregationLatency
// (sequential engine, ECMP queries, Balance placement) and
// experiments.TrainTablesWorkers + Fig15DiurnalWorkers. Its outputs must
// equal the entry points' bit for bit, so the mirror cannot drift from the
// code the figures run without the traced run failing.

// ecmpLazyPairs mirrors the experiments package's switch from the eager
// all-pairs route table to the on-demand resolver.
const ecmpLazyPairs = 4 << 20

// ecmpPath mirrors the experiments package's hash-probed ECMP path choice.
func ecmpPath(ft *fattree.FatTree, active *topology.ActiveSet, i, j int, buf topology.Path) (topology.Path, bool) {
	src, dst := ft.Hosts[i], ft.Hosts[j]
	np := ft.NumPaths(src, dst)
	h := uint64(i)<<32 | uint64(j)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	start := int(h % uint64(np))
	for t := 0; t < np; t++ {
		buf = ft.PathByIndexInto(src, dst, (start+t)%np, buf)
		if active.PathOn(buf) {
			return buf, true
		}
	}
	return buf, false
}

func (w *fig10) runTraced(tr *tracer) (*outcome, error) {
	// The defaults NetLatencyConfig.fill applies to the fields setup
	// leaves unset.
	cfg := w.cfg
	if cfg.QueryRate <= 0 {
		cfg.QueryRate = 40
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	s := tr.begin("fattree.build")
	ftCfg := fattree.DefaultConfig()
	ftCfg.K = cfg.K
	ft, err := fattree.New(ftCfg)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	counts := map[string]float64{}
	var rows []experiments.Fig10Row
	var submitted, completed int
	for _, level := range fig10Levels {
		cell := tr.begin("fig10.cell")
		st, err := tracedCell(tr, cfg, ft, level, counts)
		tr.end(cell)
		if err != nil {
			return nil, fmt.Errorf("level %d: %w", level, err)
		}
		rows = append(rows, experiments.Fig10Row{
			Level:  level,
			BgUtil: fig10Bg[0],
			MeanS:  st.NetReqLat.Mean(),
			P95S:   st.NetReqLat.Quantile(0.95),
			P99S:   st.NetReqLat.Quantile(0.99),
		})
		submitted += st.QueriesSubmitted
		completed += st.Queries
		counts["cluster.subqueries"] += float64(st.NetReqLat.Count())
		counts["cluster.dropped_sub"] += float64(st.DroppedSub)
	}
	o := fig10Outcome(rows)
	if want := w.queries * len(fig10Levels); submitted != want {
		o.violations = append(o.violations, fmt.Sprintf("%d queries over %d cells, want %d", submitted, len(fig10Levels), want))
	}
	counts["cluster.queries"] = float64(submitted)
	counts["cluster.goodput"] = float64(completed) / float64(max(submitted, 1))
	if counts["topology.segments"] > 0 {
		counts["route.intern_ratio"] = counts["route.interned"] / counts["topology.segments"]
	}
	delete(counts, "route.interned")
	o.counts = counts
	return o, nil
}

// tracedCell is one (level, background) cell of the Fig 10 harness.
func tracedCell(tr *tracer, cfg experiments.NetLatencyConfig, ft *fattree.FatTree, level int, counts map[string]float64) (*cluster.Stats, error) {
	seed := cfg.Seed
	bgUtil := fig10Bg[0]
	active := ft.AggregationPolicy(level)

	eng := sim.New()
	ncfg := netsim.DefaultConfig()
	ncfg.FluidBackground = cfg.Fluid
	net := netsim.New(eng, ft.Graph, ncfg)
	d, err := wl.ServiceDist(wl.DefaultServiceConfig())
	if err != nil {
		return nil, err
	}
	clCfg := cluster.DefaultConfig(d, func(host, core int) server.Policy { return dvfs.NewMaxFreq() })
	clCfg.CoresPerServer = 2
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return nil, err
	}

	hosts := len(ft.Hosts)
	lazy := hosts*hosts > ecmpLazyPairs
	var bgFlows []flow.Flow
	fid := flow.ID(50000)
	if lazy {
		fid = flow.ID(hosts * hosts)
	}
	k := ft.Cfg.K
	hostsPerPod := hosts / k
	for sp := 0; sp < k; sp++ {
		for dp := 0; dp < k; dp++ {
			if sp == dp {
				continue
			}
			bgFlows = append(bgFlows, flow.Flow{
				ID:        fid,
				Src:       ft.Hosts[sp*hostsPerPod+dp%hostsPerPod],
				Dst:       ft.Hosts[dp*hostsPerPod+sp%hostsPerPod],
				DemandBps: bgUtil * ft.Cfg.LinkCapacityBps, Class: flow.Background,
			})
			fid++
		}
	}

	s := tr.begin("consolidate.place")
	placed, err := consolidate.Balance(ft, bgFlows, consolidate.Config{ScaleK: 1, SafetyMarginBps: 50e6, Restrict: active})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if !placed.Feasible {
		return nil, fmt.Errorf("%w (%d unplaced)", experiments.ErrInfeasible, len(placed.Unplaced))
	}
	net.SetActive(active)

	pairs := hosts * hosts
	s = tr.begin("route.install")
	if !lazy {
		net.ReserveRoutes(pairs)
		net.Arena().Reserve(pairs/6, pairs/2)
	}
	err = net.InstallRoutes(placed.Paths)
	interned := len(placed.Paths)
	if err == nil && !lazy {
		var scratch topology.Path
		for i := 0; i < hosts && err == nil; i++ {
			for j := 0; j < hosts; j++ {
				if i == j {
					continue
				}
				p, ok := ecmpPath(ft, active, i, j, scratch)
				scratch = p
				if !ok {
					err = fmt.Errorf("%w: no active ECMP path host %d→%d", experiments.ErrInfeasible, i, j)
					break
				}
				if err = net.SetRoute(cl.FlowID(i, j), p); err != nil {
					break
				}
				interned++
				counts["route.pairs"]++
			}
		}
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if lazy {
		var scratch topology.Path
		// Resolutions are many and short, so they are timed into a
		// counter rather than recorded as spans.
		err := net.SetRouteResolver(func(qf flow.ID) topology.Path {
			t0 := time.Now()
			defer func() { counts["route.resolve_s"] += time.Since(t0).Seconds() }()
			counts["route.resolved"]++
			q, hh := int64(qf), int64(hosts)
			if q < 0 || q >= hh*hh {
				return nil
			}
			i, j := int(q/hh), int(q%hh)
			if i == j {
				return nil
			}
			p, ok := ecmpPath(ft, active, i, j, scratch)
			scratch = p
			if !ok {
				return nil
			}
			counts["route.interned"]++
			return p
		})
		if err != nil {
			return nil, err
		}
	}

	s = tr.begin("netsim.bg_start")
	var bgs []*netsim.Background
	for i, f := range bgFlows {
		f := f
		bgs = append(bgs, net.StartBackground(f.ID, func() float64 { return f.DemandBps },
			rng.Derive(seed, fmt.Sprintf("bg-%d", i))))
	}
	tr.end(s)
	sampler := wl.NewSampler(d, seed+5)
	stop := cl.StartPoisson(func() float64 { return cfg.QueryRate }, sampler.Draw, seed+11)
	s = tr.begin("sim.run")
	eng.Run(cfg.DurationS)
	tr.end(s)
	stop()
	s = tr.begin("netsim.bg_stop")
	for _, b := range bgs {
		b.Stop()
	}
	tr.end(s)
	s = tr.begin("sim.drain")
	eng.Run(cfg.DurationS + 0.5)
	tr.end(s)

	counts["route.interned"] += float64(interned)
	counts["topology.segments"] += float64(net.Arena().NumSegments())
	counts["topology.hops"] += float64(net.Arena().NumHops())
	return cl.Stats(), nil
}

// trainTraced mirrors experiments.TrainTablesWorkers(true, 1).
func trainTraced(tr *tracer) (eprons, tt, mf *core.ServerPowerTable, err error) {
	mk := func(policy func(m *dvfs.Model) server.Policy, dur, warmup float64) (*core.ServerPowerTable, error) {
		cfg := core.DefaultTrainConfig()
		cfg.Policy = policy
		cfg.Duration = dur
		cfg.WarmupS = warmup
		cfg.Workers = 1
		cfg.Cores = 4
		cfg.Utils = []float64{0.10, 0.30, 0.50}
		cfg.Budgets = []float64{8e-3, 12e-3, 20e-3, 30e-3}
		if warmup == 0 {
			cfg.Duration = dur / 3
		}
		s := tr.begin("core.train")
		defer tr.end(s)
		return core.TrainServerPowerTable(cfg)
	}
	if eprons, err = mk(func(m *dvfs.Model) server.Policy { return dvfs.NewEPRONSServer(m, 0.05) }, 20, 0); err != nil {
		return nil, nil, nil, err
	}
	if tt, err = mk(func(m *dvfs.Model) server.Policy { return dvfs.NewTimeTrader() }, 160, 100); err != nil {
		return nil, nil, nil, err
	}
	if mf, err = mk(func(m *dvfs.Model) server.Policy { return dvfs.NewMaxFreq() }, 10, 0); err != nil {
		return nil, nil, nil, err
	}
	return eprons, tt, mf, nil
}

// setupTraced trains the tables through the entry point and through the
// traced mirror, and requires the two to agree bit for bit.
func (w *diurnal) setupTraced(seed int64, tr *tracer) error {
	if err := w.setup(seed); err != nil {
		return err
	}
	e, t, m, err := trainTraced(tr)
	if err != nil {
		return err
	}
	for i, pair := range [][2]*core.ServerPowerTable{{w.eprons, e}, {w.tt, t}, {w.mf, m}} {
		if err := sameTable(pair[0], pair[1]); err != nil {
			return fmt.Errorf("traced table %d: %w", i, err)
		}
	}
	return nil
}

func sameTable(a, b *core.ServerPowerTable) error {
	flat := func(t *core.ServerPowerTable) []float64 {
		out := append(append([]float64(nil), t.Utils...), t.Budgets...)
		for i, row := range t.PowerW {
			out = append(out, row...)
			for _, ok := range t.OK[i] {
				if ok {
					out = append(out, 1)
				} else {
					out = append(out, 0)
				}
			}
		}
		return out
	}
	x, y := flat(a), flat(b)
	if len(x) != len(y) {
		return fmt.Errorf("%d cells vs %d", len(x), len(y))
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return fmt.Errorf("cell %d: %.17g vs %.17g", i, x[i], y[i])
		}
	}
	return nil
}

// runTraced mirrors experiments.Fig15DiurnalWorkers(..., step, 1) for
// each replayed step.
func (w *diurnal) runTraced(tr *tracer) (*outcome, error) {
	var sums []*experiments.Fig15Summary
	for _, step := range diurnalSteps {
		s := tr.begin("fattree.build")
		ft, err := fattree.New(fattree.DefaultConfig())
		tr.end(s)
		if err != nil {
			return nil, err
		}
		s = tr.begin("core.planner")
		planner, err := core.NewPlanner(core.DefaultConfig(), ft, w.eprons)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		planner.Workers = 1
		s = tr.begin("core.replay")
		res, err := core.RunDiurnal(core.DiurnalConfig{
			Planner:         planner,
			TimeTraderTable: w.tt,
			MaxFreqTable:    w.mf,
			SearchTrace:     wl.SearchLoadTrace(),
			BgTrace:         wl.BackgroundTrace(),
			PeakUtil:        0.5,
			StepS:           step,
			Workers:         1,
		})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		sums = append(sums, &experiments.Fig15Summary{
			Result:           res,
			EPRONSAvgSaving:  core.AvgSaving(&res.EPRONS.TotalW, &res.NoPM.TotalW),
			EPRONSPeakSaving: core.MaxSaving(&res.EPRONS.TotalW, &res.NoPM.TotalW),
			TTAvgSaving:      core.AvgSaving(&res.TimeTrader.TotalW, &res.NoPM.TotalW),
			TTPeakSaving:     core.MaxSaving(&res.TimeTrader.TotalW, &res.NoPM.TotalW),
			ServerAvgEPRONS:  core.AvgSaving(&res.EPRONS.ServerW, &res.NoPM.ServerW),
			ServerAvgTT:      core.AvgSaving(&res.TimeTrader.ServerW, &res.NoPM.ServerW),
			NetAvgEPRONS:     core.AvgSaving(&res.EPRONS.NetW, &res.NoPM.NetW),
		})
	}
	return diurnalOutcome(sums), nil
}
