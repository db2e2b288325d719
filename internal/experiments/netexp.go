package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"eprons/internal/cluster"
	"eprons/internal/consolidate"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/metrics"
	"eprons/internal/netsim"
	"eprons/internal/parallel"
	"eprons/internal/power"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// KneePoint is one Fig 1 measurement.
type KneePoint struct {
	Utilization float64
	MeanS       float64
	P95S        float64
	P99S        float64
}

// Fig01Knee measures query latency on a single bottleneck link as
// background utilization sweeps — the utilization-latency knee that
// motivates latency-aware consolidation. durationS seconds are simulated
// per point.
func Fig01Knee(utils []float64, durationS float64, seed int64) ([]KneePoint, error) {
	var out []KneePoint
	for i, u := range utils {
		g := topology.NewGraph()
		h0 := g.AddNode("h0", topology.Host, 0)
		sw := g.AddNode("sw", topology.EdgeSwitch, 36)
		h1 := g.AddNode("h1", topology.Host, 0)
		if _, err := g.AddLink(h0, sw, 1e9, 0); err != nil {
			return nil, err
		}
		if _, err := g.AddLink(sw, h1, 1e9, 0); err != nil {
			return nil, err
		}
		eng := sim.New()
		net := netsim.New(eng, g, netsim.DefaultConfig())
		path := topology.Path{h0, sw, h1}
		if err := net.SetRoute(1, path); err != nil {
			return nil, err
		}
		if err := net.SetRoute(2, path); err != nil {
			return nil, err
		}
		bg := net.StartBackground(2, func() float64 { return u * 1e9 }, rng.Derive(seed, fmt.Sprintf("knee-bg-%d", i)))
		var tr metrics.Tracker
		qs := rng.Derive(seed, fmt.Sprintf("knee-q-%d", i))
		var send func()
		send = func() {
			net.SendMessage(1, 1500, func(l float64) { tr.Add(l) }, nil)
			if eng.Now() < durationS {
				eng.After(qs.Exp(400e-6), send)
			}
		}
		eng.After(1e-3, send)
		eng.Run(durationS)
		bg.Stop()
		out = append(out, KneePoint{
			Utilization: u,
			MeanS:       tr.Mean(),
			P95S:        tr.Quantile(0.95),
			P99S:        tr.Quantile(0.99),
		})
	}
	return out, nil
}

// Fig01Table renders the knee curve.
func Fig01Table(pts []KneePoint) *Table {
	t := &Table{
		Title:   "Fig 1 — link utilization vs query network latency (single bottleneck)",
		Headers: []string{"util", "mean(µs)", "p95(µs)", "p99(µs)"},
	}
	for _, p := range pts {
		t.AddRow(Pct(p.Utilization), Us(p.MeanS), Us(p.P95S), Us(p.P99S))
	}
	return t
}

// Fig02Row describes one scale factor's placement in the Fig 2 demo.
type Fig02Row struct {
	K              float64
	ActiveSwitches int
	SharedWithBig  int // latency-sensitive flows sharing a link with the elephant
	Feasible       bool
}

// Fig02ScaleDemo reproduces the worked example: a 900 Mbps elephant plus
// two 20 Mbps latency-sensitive flows under K = 1, 2, 3.
func Fig02ScaleDemo() ([]Fig02Row, *fattree.FatTree, map[float64]*consolidate.Result, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	flows := []flow.Flow{
		{ID: 0, Src: ft.Hosts[1], Dst: ft.Hosts[5], DemandBps: 900e6, Class: flow.Background},
		{ID: 1, Src: ft.Hosts[0], Dst: ft.Hosts[4], DemandBps: 20e6, Class: flow.LatencySensitive},
		{ID: 2, Src: ft.Hosts[2], Dst: ft.Hosts[6], DemandBps: 20e6, Class: flow.LatencySensitive},
	}
	var rows []Fig02Row
	results := map[float64]*consolidate.Result{}
	for _, k := range []float64{1, 2, 3} {
		res, err := consolidate.Greedy(ft, flows, consolidate.Config{ScaleK: k, SafetyMarginBps: 50e6})
		if err != nil {
			return nil, nil, nil, err
		}
		results[k] = res
		row := Fig02Row{K: k, Feasible: res.Feasible, ActiveSwitches: res.Active.ActiveSwitches()}
		ele := map[topology.LinkID]bool{}
		if p, ok := res.Paths[0]; ok {
			for _, l := range p.Links(ft.Graph) {
				ele[l] = true
			}
		}
		for _, id := range []flow.ID{1, 2} {
			if p, ok := res.Paths[id]; ok {
				for _, l := range p.Links(ft.Graph) {
					if ele[l] {
						row.SharedWithBig++
						break
					}
				}
			}
		}
		rows = append(rows, row)
	}
	return rows, ft, results, nil
}

// Fig02Table renders the scale-factor demo rows.
func Fig02Table(rows []Fig02Row) *Table {
	t := &Table{
		Title:   "Fig 2 — scale factor K moves latency-sensitive flows off the elephant path",
		Headers: []string{"K", "active switches", "flows sharing elephant links", "feasible"},
	}
	for _, r := range rows {
		t.AddRow(F(r.K), strconv.Itoa(r.ActiveSwitches), strconv.Itoa(r.SharedWithBig), strconv.FormatBool(r.Feasible))
	}
	return t
}

// Fig02PathTable lists the switch path of every placed flow of one demo
// result, in flow-ID order.
func Fig02PathTable(ft *fattree.FatTree, res *consolidate.Result, k float64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Fig 2 — paths at K=%s", F(k)),
		Headers: []string{"flow", "path"},
	}
	ids := make([]flow.ID, 0, len(res.Paths))
	for id := range res.Paths {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		names := make([]string, len(res.Paths[id]))
		for i, n := range res.Paths[id] {
			names[i] = ft.Graph.Node(n).Name
		}
		t.AddRow(strconv.Itoa(int(id)), strings.Join(names, " → "))
	}
	return t
}

// Fig08Point is one switch power sample.
type Fig08Point struct {
	Utilization float64
	PowerW      float64
}

// Fig08SwitchPower evaluates the measured HPE curve — flat to within 0.6%.
func Fig08SwitchPower() []Fig08Point {
	var out []Fig08Point
	for u := 0.0; u <= 1.0001; u += 0.1 {
		out = append(out, Fig08Point{Utilization: u, PowerW: power.HPESwitchW(u)})
	}
	return out
}

// Fig09Row summarizes one aggregation policy.
type Fig09Row struct {
	Level          int
	ActiveSwitches int
	ActiveLinks    int
	NetworkPowerW  float64
	Connected      bool
}

// Fig09Policies enumerates the four consolidation levels of the 4-ary
// fat-tree.
func Fig09Policies() ([]Fig09Row, error) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var out []Fig09Row
	for j := 0; j < ft.NumAggregationPolicies(); j++ {
		a := ft.AggregationPolicy(j)
		out = append(out, Fig09Row{
			Level:          j,
			ActiveSwitches: a.ActiveSwitches(),
			ActiveLinks:    a.ActiveLinks(),
			NetworkPowerW:  a.NetworkPowerW(),
			Connected:      a.HostsConnected(),
		})
	}
	return out, nil
}

// Fig09Table renders the aggregation policies.
func Fig09Table(rows []Fig09Row) *Table {
	t := &Table{
		Title:   "Fig 9 — aggregation policies of the 4-ary fat-tree",
		Headers: []string{"level", "switches on", "links on", "network power (W)", "connected"},
	}
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.Level), strconv.Itoa(r.ActiveSwitches), strconv.Itoa(r.ActiveLinks),
			W(r.NetworkPowerW), strconv.FormatBool(r.Connected))
	}
	return t
}

// NetLatencyConfig drives the Fig 10 / Fig 11 network experiments.
type NetLatencyConfig struct {
	// DurationS of packet simulation per configuration (default 3).
	DurationS float64
	// QueryRate in queries/s (default 40).
	QueryRate float64
	// QueryReserveBps is the per-pair bandwidth reservation used when
	// placing query flows (default 10 Mbps). Search traffic is bursty:
	// the paper reserves the 90th-percentile rate, far above the mean, so
	// the scale factor K has leverage even though the average query
	// demand is small (the 20 Mbps flows of Fig 2).
	QueryReserveBps float64
	Seed            int64
	// Workers bounds sweep concurrency: each (policy, background) or
	// (K, background) cell is an independent packet simulation with
	// per-cell derived rng streams, so results are identical for every
	// worker count. <= 1 runs the historical sequential loop.
	Workers int
	// K is the fat-tree arity (default 4, the paper's testbed). k=8 is
	// the scale point the hybrid fluid engine unlocks: per-pod all-to-all
	// background flow counts grow as k², so the packet-level event load
	// explodes exactly where fluid folding pays most.
	K int
	// Fluid enables netsim's hybrid fluid/packet background engine
	// (Config.FluidBackground): uncongested background elephants become
	// analytic link reservations instead of packet events. Off by
	// default — figure series are bit-identical to the packet-only
	// simulator with it off, and within the pinned statistical
	// tolerance (TestFig10FluidTolerance) with it on.
	Fluid bool
	// Shards must be 0 or 1; any other value is rejected with an error.
	// Every cell runs on one engine.
	//
	// Deprecated: Shards selected the retired pod-sharded engine. It
	// remains only while the benchmark harness still sets it.
	Shards int
	// ECMPQueries routes query-pair traffic directly over deterministic
	// hash-selected ECMP shortest paths restricted to the active set,
	// instead of handing one flow per ordered host pair to the
	// consolidation placer; background flows are still placed by the
	// consolidator. Each pair's route resolves on demand the first time
	// the pair carries traffic, so only the pairs a run uses cost
	// anything — what makes k ≥ 16 fabrics (≥ 1M host pairs) runnable. A
	// used pair with no active ECMP path fails the cell with
	// ErrInfeasible. Off by default: the figure experiments keep the
	// paper's reservation-aware placement.
	ECMPQueries bool
}

// fill resolves zero fields to their defaults and rejects negative ones.
func (c *NetLatencyConfig) fill() error {
	if c.Shards != 0 && c.Shards != 1 {
		return fmt.Errorf("experiments: NetLatencyConfig.Shards = %d: the sharded engine is retired; leave Shards at 0 or 1", c.Shards)
	}
	if err := nonNegative("NetLatencyConfig",
		field{"DurationS", c.DurationS}, field{"QueryRate", c.QueryRate}, field{"QueryReserveBps", c.QueryReserveBps}); err != nil {
		return err
	}
	if c.DurationS == 0 {
		c.DurationS = 3
	}
	if c.K == 0 {
		c.K = fattree.DefaultConfig().K
	}
	if c.QueryRate == 0 {
		c.QueryRate = 40
	}
	if c.QueryReserveBps == 0 {
		c.QueryReserveBps = 10e6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// legacyBgIDMaxPairs decides where background flow IDs start. Every
// configuration numbers its elephants from the historical base
// legacyBgIDBase, except ECMP runs on fabrics with more than
// legacyBgIDMaxPairs ordered host pairs (k ≥ 24), which start at hosts²,
// outside the query-pair ID space. The historical base lies inside that
// space once hosts² > 50000 (10 ≤ k ≤ 20), and the pinned k=10 and k=16
// figures depend on the resulting overlap (see resolveECMPOnDemand and
// testdata/golden/fig10_ecmp.txt).
const (
	legacyBgIDMaxPairs = 4 << 20
	legacyBgIDBase     = 50000
)

// ecmpPath returns the deterministic hash-probed active ECMP shortest
// path for ordered host pair (i, j), built into buf's backing (pass the
// returned path back as buf to probe the next pair without allocating).
// The probe order is a murmur-style hash of the pair, so every rerun
// picks the same path whichever pair resolves first.
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

// resolveECMPOnDemand installs the on-demand query route plane: a pair's
// ECMP path is built and interned the first time the pair carries
// traffic. A pair with no active path resolves to nil and its messages
// drop; the returned func reports the first such pair as ErrInfeasible,
// for the caller to check after the run.
//
// Background flows whose IDs fall inside the pair space first get their
// pair's ECMP route in place of their placed one: the figures were first
// produced by a sweep that installed every pair's route over the placed
// ones, and the pinned k=10 and k=16 figures keep that result. A diagonal
// ID (i == j) is no pair and keeps its placed route.
func resolveECMPOnDemand(net *netsim.Network, ft *fattree.FatTree, act *topology.ActiveSet, bgFlows []flow.Flow) (func() error, error) {
	hosts := int64(len(ft.Hosts))
	var scratch topology.Path
	var miss error
	// pairPath resolves pair ID q: nil for an ID that names no pair
	// (outside [0, hosts²) or diagonal), ErrInfeasible for a pair with no
	// active path.
	pairPath := func(q int64) (topology.Path, error) {
		if q < 0 || q >= hosts*hosts || q/hosts == q%hosts {
			return nil, nil
		}
		i, j := int(q/hosts), int(q%hosts)
		p, ok := ecmpPath(ft, act, i, j, scratch)
		scratch = p
		if !ok {
			return nil, fmt.Errorf("%w: no active ECMP path host %d→%d", ErrInfeasible, i, j)
		}
		return p, nil
	}
	for _, f := range bgFlows {
		p, err := pairPath(int64(f.ID))
		if err != nil {
			return nil, err
		}
		if p == nil {
			continue
		}
		if err := net.SetRoute(f.ID, p); err != nil {
			return nil, err
		}
	}
	err := net.SetRouteResolver(func(qf flow.ID) topology.Path {
		p, err := pairPath(int64(qf))
		if err != nil && miss == nil {
			miss = err
		}
		return p
	})
	if err != nil {
		return nil, err
	}
	return func() error { return miss }, nil
}

// ErrInfeasible reports that a flow set could not be placed at the
// requested operating point (expected for large K at high background).
var ErrInfeasible = errors.New("placement infeasible")

// Fig10Row is one (aggregation, background) latency measurement.
type Fig10Row struct {
	Level   int
	BgUtil  float64
	MeanS   float64
	P95S    float64
	P99S    float64
	Dropped int
}

// measureNetwork runs the search cluster over a given active set with
// all-to-all pod background flows at bgUtil, returning request network
// latency statistics.
func measureNetwork(active *topology.ActiveSet, ft *fattree.FatTree, bgUtil float64, cfg NetLatencyConfig, balance bool, scaleK float64) (*cluster.Stats, int, error) {
	eng := sim.New()
	ncfg := netsim.DefaultConfig()
	ncfg.FluidBackground = cfg.Fluid
	net := netsim.New(eng, ft.Graph, ncfg)
	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		return nil, 0, err
	}
	clCfg := cluster.DefaultConfig(d, func(host, core int) server.Policy { return dvfs.NewMaxFreq() })
	clCfg.CoresPerServer = 2
	cl, err := cluster.New(net, ft.Hosts, clCfg)
	if err != nil {
		return nil, 0, err
	}

	// Background: all ordered pod pairs.
	hosts := len(ft.Hosts)
	fid := flow.ID(legacyBgIDBase)
	if cfg.ECMPQueries && hosts*hosts > legacyBgIDMaxPairs {
		fid = flow.ID(hosts * hosts)
	}
	bgFlows := ft.PodPairElephants(fid, bgUtil*ft.Cfg.LinkCapacityBps)
	// Query pair flows participate in placement so consolidation sees
	// them (Fig 11's K applies to them). The reservation is the bursty
	// 90th-percentile demand, not the mean.
	reserve := cl.QueryDemandBps(cfg.QueryRate)
	if reserve < cfg.QueryReserveBps {
		reserve = cfg.QueryReserveBps
	}
	all := bgFlows
	if !cfg.ECMPQueries {
		all = append(cl.PairFlows(reserve), bgFlows...)
	}

	ccfg := consolidate.Config{ScaleK: scaleK, SafetyMarginBps: 50e6, Restrict: active}
	var placed *consolidate.Result
	if balance {
		placed, err = consolidate.Balance(ft, all, ccfg)
	} else {
		placed, err = consolidate.Greedy(ft, all, ccfg)
	}
	if err != nil {
		return nil, 0, err
	}
	if !placed.Feasible {
		return nil, 0, fmt.Errorf("%w (%d unplaced)", ErrInfeasible, len(placed.Unplaced))
	}
	if active != nil {
		net.SetActive(active)
	} else {
		net.SetActive(placed.Active)
	}
	if err := net.InstallRoutes(placed.Paths); err != nil {
		return nil, 0, err
	}
	missed := func() error { return nil }
	if cfg.ECMPQueries {
		act := active
		if act == nil {
			act = placed.Active
		}
		missed, err = resolveECMPOnDemand(net, ft, act, bgFlows)
		if err != nil {
			return nil, 0, err
		}
	}

	specs := make([]netsim.BackgroundSpec, len(bgFlows))
	for i, f := range bgFlows {
		specs[i] = netsim.BackgroundSpec{ID: f.ID, Rate: func() float64 { return f.DemandBps },
			Stream: rng.Derive(cfg.Seed, fmt.Sprintf("bg-%d", i))}
	}
	bgs := net.StartBackgrounds(specs)
	sampler := workload.NewSampler(d, cfg.Seed+5)
	stop := cl.StartPoisson(func() float64 { return cfg.QueryRate }, sampler.Draw, cfg.Seed+11)
	eng.Run(cfg.DurationS)
	stop()
	net.StopBackgrounds(bgs)
	eng.Run(cfg.DurationS + 0.5)
	if err := missed(); err != nil {
		return nil, 0, err
	}
	return cl.Stats(), placed.Active.ActiveSwitches(), nil
}

// Fig10AggregationLatency sweeps aggregation level × background traffic
// and reports query network latency (the Fig 10(a)/(b) series).
func Fig10AggregationLatency(levels []int, bgUtils []float64, cfg NetLatencyConfig) ([]Fig10Row, error) {
	// Fixed-policy routing places by mean query demand: the burst
	// reservation is the scale-factor experiment's concern (Fig 11) and
	// would make deep aggregation artificially infeasible here.
	if cfg.QueryReserveBps == 0 {
		cfg.QueryReserveBps = 1
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ftCfg := fattree.DefaultConfig()
	ftCfg.K = cfg.K
	ft, err := fattree.New(ftCfg)
	if err != nil {
		return nil, err
	}
	// Each (level, background) cell is an independent simulation with its
	// own engine and seed-derived streams: fan out and keep row order.
	nb := len(bgUtils)
	return parallel.Map(len(levels)*nb, cfg.Workers, func(i int) (Fig10Row, error) {
		level, bg := levels[i/nb], bgUtils[i%nb]
		st, _, err := measureNetwork(ft.AggregationPolicy(level), ft, bg, cfg, true, 1)
		if err != nil {
			return Fig10Row{}, fmt.Errorf("level %d bg %.2f: %w", level, bg, err)
		}
		return Fig10Row{
			Level:  level,
			BgUtil: bg,
			MeanS:  st.NetReqLat.Mean(),
			P95S:   st.NetReqLat.Quantile(0.95),
			P99S:   st.NetReqLat.Quantile(0.99),
		}, nil
	})
}

// Fig10Table renders the aggregation × background latency grid.
func Fig10Table(rows []Fig10Row) *Table {
	t := &Table{
		Title:   "Fig 10 — query network latency vs aggregation policy and background traffic",
		Headers: []string{"aggregation", "background", "mean(µs)", "p95(µs)", "p99(µs)"},
	}
	for _, r := range rows {
		t.AddRow(strconv.Itoa(r.Level), Pct(r.BgUtil), Us(r.MeanS), Us(r.P95S), Us(r.P99S))
	}
	return t
}

// Fig11Row is one (K, background) operating point.
type Fig11Row struct {
	K              int
	BgUtil         float64
	P95S           float64
	ActiveSwitches int
	Feasible       bool
}

// Fig11ScaleFactor sweeps the scale factor K under consolidation (no fixed
// policy): larger K activates more switches and lowers tail latency — the
// Fig 11(a)/(b)/(c) trade-off.
func Fig11ScaleFactor(ks []int, bgUtils []float64, cfg NetLatencyConfig) ([]Fig11Row, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ftCfg := fattree.DefaultConfig()
	ftCfg.K = cfg.K
	ft, err := fattree.New(ftCfg)
	if err != nil {
		return nil, err
	}
	// Row order is (background outer, K inner), matching the sequential
	// loop; every cell is an independent simulation.
	nk := len(ks)
	return parallel.Map(len(bgUtils)*nk, cfg.Workers, func(i int) (Fig11Row, error) {
		bg, k := bgUtils[i/nk], ks[i%nk]
		st, switches, err := measureNetwork(nil, ft, bg, cfg, false, float64(k))
		if errors.Is(err, ErrInfeasible) {
			return Fig11Row{K: k, BgUtil: bg}, nil
		}
		if err != nil {
			return Fig11Row{}, fmt.Errorf("K=%d bg %.2f: %w", k, bg, err)
		}
		return Fig11Row{
			K:              k,
			BgUtil:         bg,
			P95S:           st.NetReqLat.Quantile(0.95),
			ActiveSwitches: switches,
			Feasible:       true,
		}, nil
	})
}

// Fig11Table renders the scale-factor trade-off grid.
func Fig11Table(rows []Fig11Row) *Table {
	t := &Table{
		Title:   "Fig 11 — scale factor K vs network tail latency and active switches",
		Headers: []string{"background", "K", "p95(µs)", "active switches", "feasible"},
	}
	for _, r := range rows {
		t.AddRow(Pct(r.BgUtil), strconv.Itoa(r.K), Us(r.P95S), strconv.Itoa(r.ActiveSwitches), strconv.FormatBool(r.Feasible))
	}
	return t
}
