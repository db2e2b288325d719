package cluster

import (
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/netsim"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// buildWith is build() with a config hook, for the timeout/retry tests.
func buildWith(t testing.TB, mutate func(*Config)) (*Cluster, *sim.Engine, *netsim.Network, *fattree.FatTree) {
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
	cfg := DefaultConfig(d, func(host, core int) server.Policy { return maxFreqFactory(host, core) })
	cfg.CoresPerServer = 2
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(net, ft.Hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.InstallShortestRoutes(net.Active()); err != nil {
		t.Fatal(err)
	}
	return c, eng, net, ft
}

// Regression: a dropped sub-query used to make its whole query silently
// vanish — never completed, never counted, invisible in every denominator.
// It must now terminate as lost, leaving no orphans.
func TestDroppedSubQueryMarksQueryLost(t *testing.T) {
	c, eng, net, ft := buildWith(t, nil) // RetryBudget 0: first failure is final
	// Power the whole fabric off: every sub-query request dies at hop 0.
	net.SetActive(topology.NewEmptyActiveSet(ft.Graph))

	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()

	st := c.Stats()
	wantSubs := len(ft.Hosts) - 1
	if st.QueriesSubmitted != 1 || st.Queries != 0 || st.QueriesLost != 1 {
		t.Fatalf("submitted=%d completed=%d lost=%d, want 1/0/1",
			st.QueriesSubmitted, st.Queries, st.QueriesLost)
	}
	if st.Orphans() != 0 {
		t.Fatalf("orphans=%d, want 0 (the query must terminate)", st.Orphans())
	}
	if st.DroppedSub != wantSubs {
		t.Fatalf("dropped sub-queries %d, want %d", st.DroppedSub, wantSubs)
	}
	if st.StrictMissRate() != 1.0 {
		t.Fatalf("strict miss rate %g, want 1 (a lost query is a missed SLA)", st.StrictMissRate())
	}
}

// A transient outage shorter than the retry delay is ridden out: every
// sub-query's first attempt drops, the retries land after the fabric is
// back, and the query completes with zero loss.
func TestRetryRecoversFromTransient(t *testing.T) {
	c, eng, net, ft := buildWith(t, func(cfg *Config) {
		cfg.RetryBudget = len(fattreeHostsMustLen(t)) // enough for one retry per sub-query
		cfg.RetryDelay = 1e-3
	})
	full := topology.NewActiveSet(ft.Graph)
	net.SetActive(topology.NewEmptyActiveSet(ft.Graph))
	// Fabric comes back 0.5 ms in — before the 1 ms drop-retry lands.
	eng.Schedule(0.5e-3, func() { net.SetActive(full) })

	draws := 0
	c.SubmitQuery(func() float64 { draws++; return 1e-3 })
	eng.RunAll()

	st := c.Stats()
	wantSubs := len(ft.Hosts) - 1
	if st.Queries != 1 || st.QueriesLost != 0 || st.Orphans() != 0 {
		t.Fatalf("completed=%d lost=%d orphans=%d, want 1/0/0",
			st.Queries, st.QueriesLost, st.Orphans())
	}
	if st.Retries != wantSubs || st.DroppedSub != wantSubs {
		t.Fatalf("retries=%d dropped=%d, want %d each", st.Retries, st.DroppedSub, wantSubs)
	}
	// Broadcast draws each base service time once and reuses it on the
	// retry; only replica attempts redraw.
	if draws != wantSubs || st.SubAttempts != 2*wantSubs {
		t.Fatalf("draws=%d attempts=%d, want %d and %d", draws, st.SubAttempts, wantSubs, 2*wantSubs)
	}
	if st.Timeouts != 0 {
		t.Fatalf("timeouts=%d, want 0 (drops are detected by notification)", st.Timeouts)
	}
}

// fattreeHostsMustLen returns the default fat-tree host count (the retry
// budget in the transient test must cover one retry per sub-query).
func fattreeHostsMustLen(t testing.TB) []topology.NodeID {
	t.Helper()
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ft.Hosts
}

// With a timeout shorter than any possible round trip and no retry budget,
// every attempt is abandoned by its timer and the late replies — which DO
// eventually arrive — must be ignored as stale, not double-resolve the
// sub-queries.
func TestTimeoutAbandonsLateReplies(t *testing.T) {
	c, eng, _, ft := buildWith(t, func(cfg *Config) {
		cfg.SubQueryTimeout = 1e-6 // fires long before the ~30 µs network RTT
	})
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()

	st := c.Stats()
	wantSubs := len(ft.Hosts) - 1
	if st.Timeouts != wantSubs {
		t.Fatalf("timeouts=%d, want %d", st.Timeouts, wantSubs)
	}
	if st.Queries != 0 || st.QueriesLost != 1 || st.Orphans() != 0 {
		t.Fatalf("completed=%d lost=%d orphans=%d, want 0/1/0",
			st.Queries, st.QueriesLost, st.Orphans())
	}
	// Every reply was suppressed or ignored: none may be recorded.
	if st.NetReplyLat.Count() != 0 {
		t.Fatalf("recorded %d stale replies, want 0", st.NetReplyLat.Count())
	}
}

// Fault-free runs keep the conservation identity with all machinery armed:
// timers scheduled but never firing, budget never spent.
func TestFaultFreeConservation(t *testing.T) {
	c, eng, _, _ := buildWith(t, func(cfg *Config) {
		cfg.SubQueryTimeout = 100e-3
		cfg.RetryBudget = 4
	})
	for i := 0; i < 5; i++ {
		eng.Schedule(float64(i)*1e-3, func() { c.SubmitQuery(func() float64 { return 1e-3 }) })
	}
	eng.RunAll()
	st := c.Stats()
	if st.QueriesSubmitted != 5 || st.Queries != 5 || st.QueriesLost != 0 || st.Orphans() != 0 {
		t.Fatalf("submitted=%d completed=%d lost=%d orphans=%d, want 5/5/0/0",
			st.QueriesSubmitted, st.Queries, st.QueriesLost, st.Orphans())
	}
	if st.Retries != 0 || st.Timeouts != 0 || st.DroppedSub != 0 {
		t.Fatalf("retries=%d timeouts=%d dropped=%d, want all 0",
			st.Retries, st.Timeouts, st.DroppedSub)
	}
	if st.Goodput() != 1.0 {
		t.Fatalf("goodput %g, want 1", st.Goodput())
	}
}
