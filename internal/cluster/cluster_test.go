package cluster

import (
	"testing"

	"eprons/internal/consolidate"
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

func build(t testing.TB, useSlack bool, factory func(host, core int) server.Policy) (*Cluster, *sim.Engine, *fattree.FatTree) {
	t.Helper()
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
	d, err := workload.ServiceDist(workload.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(d, factory)
	cfg.UseSlack = useSlack
	cfg.CoresPerServer = 2 // keep tests fast
	c, err := New(net, ft.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallShortestRoutes(net.Active()); err != nil {
		t.Fatal(err)
	}
	return c, eng, ft
}

func maxFreqFactory(host, core int) server.Policy { return dvfs.NewMaxFreq() }

func TestConfigValidation(t *testing.T) {
	ft, _ := fattree.New(fattree.DefaultConfig())
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
	d, _ := workload.ServiceDist(workload.DefaultServiceConfig())
	if _, err := New(net, ft.Hosts, Config{PolicyFactory: maxFreqFactory}); err == nil {
		t.Fatal("nil service dist accepted")
	}
	if _, err := New(net, ft.Hosts, Config{ServiceDist: d}); err == nil {
		t.Fatal("nil factory accepted")
	}
	if _, err := New(net, ft.Hosts[:1], DefaultConfig(d, maxFreqFactory)); err == nil {
		t.Fatal("single host accepted")
	}
	// Replica knobs that would be silently ignored are rejected.
	for name, mutate := range map[string]func(*Config){
		"negative replicas":        func(c *Config) { c.Replicas = -1 },
		"unknown selection":        func(c *Config) { c.Replicas, c.Selection = 3, SelHedged+1 },
		"negative selection":       func(c *Config) { c.Replicas, c.Selection = 3, -1 },
		"negative hedge delay":     func(c *Config) { c.Replicas, c.Selection, c.HedgeDelayS = 3, SelHedged, -1e-3 },
		"broadcast with p2c":       func(c *Config) { c.Selection = SelPowerOfTwo },
		"broadcast with hedged":    func(c *Config) { c.Selection = SelHedged },
		"broadcast hedge delay":    func(c *Config) { c.HedgeDelayS = 1e-3 },
		"broadcast with partition": func(c *Config) { c.Partitions = 4 },
	} {
		cfg := DefaultConfig(d, maxFreqFactory)
		mutate(&cfg)
		if _, err := New(net, ft.Hosts, cfg); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	cfg := DefaultConfig(d, maxFreqFactory)
	cfg.Replicas, cfg.Selection, cfg.HedgeDelayS = 3, SelHedged, 1e-3
	if _, err := New(net, ft.Hosts, cfg); err != nil {
		t.Fatalf("valid hedged replica config rejected: %v", err)
	}
}

func TestFlowIDsUniqueAndPaired(t *testing.T) {
	c, _, _ := build(t, true, maxFreqFactory)
	seen := map[int]bool{}
	n := 16
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			id := int(c.FlowID(i, j))
			if seen[id] {
				t.Fatalf("duplicate flow id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != n*(n-1) {
		t.Fatalf("flow count %d", len(seen))
	}
}

func TestPairFlowsAndDemand(t *testing.T) {
	c, _, _ := build(t, true, maxFreqFactory)
	flows := c.PairFlows(1e6)
	if len(flows) != 16*15 {
		t.Fatalf("pair flows %d", len(flows))
	}
	for _, f := range flows {
		if f.Src == f.Dst || f.DemandBps != 1e6 {
			t.Fatalf("bad flow %+v", f)
		}
	}
	// 100 q/s over 16 hosts, 1500+6000 bytes per pair-use.
	d := c.QueryDemandBps(100)
	want := 100.0 / 16 * 7500 * 8
	if d != want {
		t.Fatalf("demand %g, want %g", d, want)
	}
}

func TestSingleQueryCompletes(t *testing.T) {
	c, eng, _ := build(t, true, maxFreqFactory)
	c.SubmitQuery(func() float64 { return 2e-3 })
	eng.RunAll()
	st := c.Stats()
	if st.Queries != 1 {
		t.Fatalf("queries %d", st.Queries)
	}
	// 15 sub-queries processed in parallel on 15 ISNs (2 cores each → all
	// parallel): latency ≈ network + 2ms service, well under 30ms.
	lat := st.QueryLatency.Mean()
	if lat < 2e-3 || lat > 10e-3 {
		t.Fatalf("query latency %g", lat)
	}
	if st.SLAMisses != 0 {
		t.Fatal("unexpected SLA miss")
	}
	if st.NetReqLat.Count() != 15 {
		t.Fatalf("request latency samples %d", st.NetReqLat.Count())
	}
	// One attempt per ISN: SubAttempts counts broadcast sends too.
	if st.SubAttempts != 15 {
		t.Fatalf("sub-attempts %d, want 15", st.SubAttempts)
	}
	if st.DroppedSub != 0 {
		t.Fatalf("drops %d", st.DroppedSub)
	}
}

func TestSlackGrantedPositiveWhenFast(t *testing.T) {
	c, eng, _ := build(t, true, maxFreqFactory)
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	st := c.Stats()
	if st.SlackGranted.Count() == 0 {
		t.Fatal("no slack samples")
	}
	// Request latency ~100µs on an idle fabric; request budget 2.5ms →
	// slack ≈ 2.4ms.
	if st.SlackGranted.Mean() < 1e-3 {
		t.Fatalf("mean slack %g too small", st.SlackGranted.Mean())
	}
	if st.SlackGranted.Mean() > c.Cfg.NetworkBudget {
		t.Fatalf("slack exceeds network budget")
	}
}

func TestNoSlackWhenDisabled(t *testing.T) {
	c, eng, _ := build(t, false, maxFreqFactory)
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	// Granted slack is clamped at 0, so a zero mean means none was granted.
	if st := c.Stats(); st.SlackGranted.Count() == 0 || st.SlackGranted.Mean() != 0 {
		t.Fatalf("slack granted despite UseSlack=false: %d samples, mean %g",
			st.SlackGranted.Count(), st.SlackGranted.Mean())
	}
}

func TestPoissonStreamAndPower(t *testing.T) {
	c, eng, _ := build(t, true, maxFreqFactory)
	d := c.Cfg.ServiceDist
	sampler := workload.NewSampler(d, 3)
	stop := c.StartPoisson(func() float64 { return 50 }, sampler.Draw, 9)
	eng.Run(2.0)
	stop()
	eng.RunAll()
	st := c.Stats()
	if st.Queries < 60 {
		t.Fatalf("only %d queries in 2s at 50/s", st.Queries)
	}
	if st.MissRate() > 0.10 {
		t.Fatalf("miss rate %.3f at light load", st.MissRate())
	}
	end := eng.Now()
	cpu := c.CPUPowerW(0, end)
	if cpu <= 0 {
		t.Fatal("no CPU power recorded")
	}
	total := c.ServerPowerW(0, end)
	if total != cpu+16*power.ServerStaticW {
		t.Fatalf("server power %g vs cpu %g", total, cpu)
	}
}

func TestQueryOnRestrictedTopology(t *testing.T) {
	// Queries still complete when routed over Aggregation 3 (one core
	// switch).
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
	d, _ := workload.ServiceDist(workload.DefaultServiceConfig())
	cfg := DefaultConfig(d, maxFreqFactory)
	cfg.CoresPerServer = 2
	c, err := New(net, ft.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	active := ft.AggregationPolicy(3)
	net.SetActive(active)
	if err := c.InstallShortestRoutes(active); err != nil {
		t.Fatal(err)
	}
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	if c.Stats().Queries != 1 || c.Stats().DroppedSub != 0 {
		t.Fatalf("restricted query failed: %+v", c.Stats())
	}
}

func TestAggregationLatencyIncreases(t *testing.T) {
	// Fig 10 direction: with heavy background traffic, consolidating to
	// Aggregation 3 raises query network latency vs Aggregation 0.
	if testing.Short() {
		t.Skip("simulation test")
	}
	run := func(level int) float64 {
		ft, _ := fattree.New(fattree.DefaultConfig())
		eng := sim.New()
		net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
		d, _ := workload.ServiceDist(workload.DefaultServiceConfig())
		cfg := DefaultConfig(d, maxFreqFactory)
		cfg.CoresPerServer = 2
		c, err := New(net, ft.Hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		active := ft.AggregationPolicy(level)
		net.SetActive(active)
		if err := c.InstallShortestRoutes(active); err != nil {
			t.Fatal(err)
		}
		// All-to-all pod-pair background flows at 25% of link rate,
		// ECMP-balanced within the active policy: consolidation to fewer
		// core switches concentrates them onto shared uplinks.
		var bgFlows []flow.Flow
		fid := flow.ID(10000)
		for sp := 0; sp < 4; sp++ {
			for dp := 0; dp < 4; dp++ {
				if sp == dp {
					continue
				}
				bgFlows = append(bgFlows, flow.Flow{
					ID: fid, Src: ft.Hosts[sp*4], Dst: ft.Hosts[dp*4],
					DemandBps: 0.25 * 1e9, Class: flow.Background,
				})
				fid++
			}
		}
		placed, err := consolidate.Balance(ft, bgFlows, consolidate.Config{ScaleK: 1, SafetyMarginBps: 50e6, Restrict: active})
		if err != nil || !placed.Feasible {
			t.Fatalf("background placement failed: %v %v", err, placed.Unplaced)
		}
		if err := net.InstallRoutes(placed.Paths); err != nil {
			t.Fatal(err)
		}
		var bgs []*netsim.Background
		for _, f := range bgFlows {
			f := f
			bgs = append(bgs, net.StartBackground(f.ID, func() float64 { return f.DemandBps },
				rngStream(int64(1000+len(bgs)))))
		}
		sampler := workload.NewSampler(d, 3)
		stop := c.StartPoisson(func() float64 { return 40 }, sampler.Draw, 9)
		eng.Run(3.0)
		stop()
		for _, b := range bgs {
			b.Stop()
		}
		eng.Run(3.5) // drain in-flight work; background tails off after Stop
		return c.Stats().NetReqLat.Quantile(0.95)
	}
	l0 := run(0)
	l3 := run(3)
	if l3 <= l0 {
		t.Fatalf("aggregation 3 p95 net latency %.1fµs not above aggregation 0 %.1fµs", l3*1e6, l0*1e6)
	}
}

// rngStream is a tiny helper for tests needing ad-hoc streams.
func rngStream(seed int64) *rng.Stream { return rng.New(seed) }

func TestFullBudgetSlackGrantsMore(t *testing.T) {
	run := func(full bool) float64 {
		ft, err := fattree.New(fattree.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.New()
		net := netsim.New(eng, ft.Graph, netsim.DefaultConfig())
		d, _ := workload.ServiceDist(workload.DefaultServiceConfig())
		cfg := DefaultConfig(d, maxFreqFactory)
		cfg.CoresPerServer = 2
		cfg.FullBudgetSlack = full
		c, err := New(net, ft.Hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InstallShortestRoutes(net.Active()); err != nil {
			t.Fatal(err)
		}
		c.SubmitQuery(func() float64 { return 1e-3 })
		eng.RunAll()
		return c.Stats().SlackGranted.Mean()
	}
	conservative := run(false)
	full := run(true)
	// The full-budget mode grants ~NetworkBudget − reqLatency; the
	// conservative mode only the request half.
	if full <= conservative+1e-3 {
		t.Fatalf("full-budget slack %.2fms not above conservative %.2fms", full*1e3, conservative*1e3)
	}
}

func TestLatencyBreakdown(t *testing.T) {
	c, eng, _ := build(t, true, maxFreqFactory)
	c.SubmitQuery(func() float64 { return 2e-3 })
	eng.RunAll()
	st := c.Stats()
	req, srv, reply := st.NetReqLat.Mean(), st.ServerLat.Mean(), st.NetReplyLat.Mean()
	if req <= 0 || srv <= 0 || reply <= 0 {
		t.Fatalf("breakdown %g/%g/%g", req, srv, reply)
	}
	// Server time dominates a 2 ms service on an idle fabric; the reply
	// (4 packets) costs more network time than the 1-packet request.
	if srv < 2e-3 {
		t.Fatalf("server time %g below service time", srv)
	}
	if reply <= req {
		t.Fatalf("reply %g not above request %g (4 packets vs 1)", reply, req)
	}
	// The three parts bound the end-to-end mean from below.
	if st.QueryLatency.Mean() < req+srv {
		t.Fatal("breakdown exceeds total")
	}
}
