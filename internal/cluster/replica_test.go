package cluster

import (
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/netsim"
	"eprons/internal/rng"
	"eprons/internal/server"
	"eprons/internal/sim"
	"eprons/internal/topology"
	"eprons/internal/workload"
)

// buildReplicated is buildWith for the replicated data tier: R replicas
// per partition, pod failure domains from the fat-tree layout.
func buildReplicated(t testing.TB, r int, mutate func(*Config)) (*Cluster, *sim.Engine, *netsim.Network, *fattree.FatTree) {
	t.Helper()
	return buildWith(t, func(cfg *Config) {
		cfg.Replicas = r
		ft, err := fattree.New(fattree.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pods := make([]int, len(ft.Hosts))
		for i, h := range ft.Hosts {
			pods[i] = ft.HostPod(h)
		}
		cfg.HostPods = pods
		if mutate != nil {
			mutate(cfg)
		}
	})
}

// nextAggregators reproduces the cluster's first n aggregator draws so
// tests can pick a victim host that is NOT one of the aggregators.
func nextAggregators(seed int64, hosts, n int) map[int]bool {
	s := rng.Derive(seed, "aggregator")
	aggs := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		aggs[s.Intn(hosts)] = true
	}
	return aggs
}

// assertHedgeIdentity asserts the drained hedge-accounting identity.
func assertHedgeIdentity(t testing.TB, st *Stats) {
	t.Helper()
	if st.Hedges != st.HedgeWins+st.HedgeWasted {
		t.Fatalf("hedge identity violated: hedges=%d wins=%d wasted=%d",
			st.Hedges, st.HedgeWins, st.HedgeWasted)
	}
}

// Fault-free replicated runs keep the conservation identity, touch exactly
// one replica per partition, and never fail over or hedge.
func TestReplicatedFaultFreeConservation(t *testing.T) {
	c, eng, _, _ := buildReplicated(t, 3, nil)
	const n = 5
	for i := 0; i < n; i++ {
		eng.Schedule(float64(i)*1e-3, func() { c.SubmitQuery(func() float64 { return 1e-3 }) })
	}
	eng.RunAll()
	st := c.Stats()
	if st.QueriesSubmitted != n || st.Queries != n || st.QueriesLost != 0 || st.Orphans() != 0 {
		t.Fatalf("submitted=%d completed=%d lost=%d orphans=%d, want %d/%d/0/0",
			st.QueriesSubmitted, st.Queries, st.QueriesLost, st.Orphans(), n, n)
	}
	// One attempt per partition per query: the per-partition fan-out, not
	// the broadcast.
	wantAttempts := n * c.Placement().Partitions()
	if st.SubAttempts != wantAttempts {
		t.Fatalf("attempts=%d, want %d (one replica per partition)", st.SubAttempts, wantAttempts)
	}
	if st.Failovers != 0 || st.Hedges != 0 || st.Retries != 0 || st.DroppedSub != 0 {
		t.Fatalf("failovers=%d hedges=%d retries=%d dropped=%d, want all 0",
			st.Failovers, st.Hedges, st.Retries, st.DroppedSub)
	}
	assertHedgeIdentity(t, st)
}

// killUplink powers off a host's single edge uplink, isolating it.
func killUplink(net *netsim.Network, ft *fattree.FatTree, hostIdx int) {
	act := net.Active().Clone()
	for _, lid := range ft.Graph.LinksAt(ft.Hosts[hostIdx]) {
		act.SetLink(lid, false)
	}
	net.SetActive(act)
}

// primaryVictim picks a host that is the primary replica of at least one
// partition and will not be drawn as an aggregator by the test's queries.
func primaryVictim(t testing.TB, c *Cluster, aggs map[int]bool) int {
	t.Helper()
	pl := c.Placement()
	for p := 0; p < pl.Partitions(); p++ {
		if v := pl.Replicas(p)[0]; !aggs[v] {
			return v
		}
	}
	t.Fatal("no primary victim distinct from the aggregators")
	return -1
}

// With R=3 and zero retry budget, a query survives an isolated replica
// host through failover alone; with R=1 the same outage loses the query.
func TestReplicaFailoverRecoversWhereSingleReplicaLoses(t *testing.T) {
	// R=3: the dead primary's partitions fail over to live replicas.
	c3, eng3, net3, ft3 := buildReplicated(t, 3, nil) // RetryBudget 0
	victim := primaryVictim(t, c3, nextAggregators(c3.Cfg.Seed, len(ft3.Hosts), 1))
	killUplink(net3, ft3, victim)
	c3.SubmitQuery(func() float64 { return 1e-3 })
	eng3.RunAll()
	st := c3.Stats()
	if st.Queries != 1 || st.QueriesLost != 0 || st.Orphans() != 0 {
		t.Fatalf("R=3: completed=%d lost=%d orphans=%d, want 1/0/0",
			st.Queries, st.QueriesLost, st.Orphans())
	}
	if st.Failovers == 0 || st.DroppedSub == 0 {
		t.Fatalf("R=3: failovers=%d dropped=%d, want both > 0 (victim %d was a primary)",
			st.Failovers, st.DroppedSub, victim)
	}
	if st.Retries != 0 {
		t.Fatalf("R=3: retries=%d, want 0 (failover must not spend the retry budget)", st.Retries)
	}

	// R=1: the victim's partition has no other replica; the query is lost.
	c1, eng1, net1, ft1 := buildReplicated(t, 1, nil)
	victim1 := primaryVictim(t, c1, nextAggregators(c1.Cfg.Seed, len(ft1.Hosts), 1))
	killUplink(net1, ft1, victim1)
	c1.SubmitQuery(func() float64 { return 1e-3 })
	eng1.RunAll()
	st1 := c1.Stats()
	if st1.Queries != 0 || st1.QueriesLost != 1 || st1.Orphans() != 0 {
		t.Fatalf("R=1: completed=%d lost=%d orphans=%d, want 0/1/0",
			st1.Queries, st1.QueriesLost, st1.Orphans())
	}
}

// Failed replicas are marked suspect and skipped by selection until
// ReadmitReplicas clears the marks (the controller's repair hook).
func TestSuspectSkippedUntilReadmitted(t *testing.T) {
	c, eng, net, ft := buildReplicated(t, 3, nil)
	victim := primaryVictim(t, c, nextAggregators(c.Cfg.Seed, len(ft.Hosts), 3))
	killUplink(net, ft, victim)

	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	dropped := c.Stats().DroppedSub
	if dropped == 0 {
		t.Fatal("first query saw no drops; victim was never selected")
	}

	// Fabric still dead, but the victim is now suspect: selection routes
	// around it, so the second query completes with no new drops.
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	st := c.Stats()
	if st.DroppedSub != dropped {
		t.Fatalf("suspect replica re-selected: drops %d -> %d", dropped, st.DroppedSub)
	}
	if st.Queries != 2 {
		t.Fatalf("completed=%d, want 2", st.Queries)
	}

	// Readmit with the fabric still dead: the primary is selected again
	// and drops again — proof the mark (not luck) was steering selection.
	c.ReadmitReplicas()
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	if st := c.Stats(); st.DroppedSub == dropped {
		t.Fatal("readmitted replica never re-selected")
	}
}

// Forced hedging (tiny explicit delay) duplicates every sub-query; the
// accounting identity must hold exactly after the drain, and the query
// must not double-complete.
func TestHedgeAccountingIdentity(t *testing.T) {
	c, eng, _, _ := buildReplicated(t, 3, func(cfg *Config) {
		cfg.Selection = SelHedged
		cfg.HedgeDelayS = 1e-6 // fires long before any reply
	})
	const n = 4
	for i := 0; i < n; i++ {
		eng.Schedule(float64(i)*1e-3, func() { c.SubmitQuery(func() float64 { return 1e-3 }) })
	}
	eng.RunAll()
	st := c.Stats()
	wantHedges := n * c.Placement().Partitions()
	if st.Hedges != wantHedges {
		t.Fatalf("hedges=%d, want %d (every sub-query hedged once)", st.Hedges, wantHedges)
	}
	assertHedgeIdentity(t, st)
	if st.HedgeWins == 0 {
		t.Fatal("no hedge ever won despite firing before every reply round-trip")
	}
	if st.Queries != n || st.Orphans() != 0 {
		t.Fatalf("completed=%d orphans=%d, want %d/0 (no double-completes)", st.Queries, st.Orphans(), n)
	}
}

// Timer-lifecycle race (satellite of the failover work): the hedge trigger
// and the retry timeout armed for the SAME instant, on a server too slow
// to reply first. Whichever fires first, generation staleness must keep
// the accounting exact: no double-complete, no orphan, hedge identity.
func TestHedgeAndTimeoutRaceSameTick(t *testing.T) {
	c, eng, _, _ := buildReplicated(t, 2, func(cfg *Config) {
		cfg.Selection = SelHedged
		cfg.SubQueryTimeout = 10e-3
		cfg.HedgeDelayS = 10e-3 // collides exactly with the timeout
	})
	c.SubmitQuery(func() float64 { return 50e-3 }) // service alone outlasts both timers
	eng.RunAll()
	st := c.Stats()
	if st.Timeouts == 0 {
		t.Fatal("timeout never fired; race not exercised")
	}
	if got := st.Queries + st.QueriesLost; got != 1 || st.Orphans() != 0 {
		t.Fatalf("terminated=%d orphans=%d, want 1/0", got, st.Orphans())
	}
	assertHedgeIdentity(t, st)
}

// The same race against drops: a dead fabric turns every attempt into a
// drop notification while hedge timers and drop-retry delays interleave in
// the same ticks. The drain must resolve every query and every hedge.
func TestHedgeRacesDropsOnDeadFabric(t *testing.T) {
	c, eng, net, ft := buildReplicated(t, 3, func(cfg *Config) {
		cfg.Selection = SelHedged
		cfg.HedgeDelayS = 1e-3 // equals RetryDelay: hedges collide with resends
		cfg.SubQueryTimeout = 5e-3
	})
	net.SetActive(topology.NewEmptyActiveSet(ft.Graph))
	c.SubmitQuery(func() float64 { return 1e-3 })
	eng.RunAll()
	st := c.Stats()
	if st.Queries != 0 || st.QueriesLost != 1 || st.Orphans() != 0 {
		t.Fatalf("completed=%d lost=%d orphans=%d, want 0/1/0",
			st.Queries, st.QueriesLost, st.Orphans())
	}
	assertHedgeIdentity(t, st)
}

// Replicated runs are deterministic: identical seeds yield identical
// accounting for every selection policy.
func TestReplicatedDeterministic(t *testing.T) {
	for _, sel := range []SelectionPolicy{SelPrimary, SelPowerOfTwo, SelHedged} {
		run := func() *Stats {
			c, eng, _, _ := buildReplicated(t, 3, func(cfg *Config) { cfg.Selection = sel })
			for i := 0; i < 6; i++ {
				eng.Schedule(float64(i)*0.5e-3, func() { c.SubmitQuery(func() float64 { return 1e-3 }) })
			}
			eng.RunAll()
			return c.Stats()
		}
		a, b := run(), run()
		if a.Queries != b.Queries || a.SubAttempts != b.SubAttempts ||
			a.Hedges != b.Hedges || a.Failovers != b.Failovers ||
			a.QueryLatency.Mean() != b.QueryLatency.Mean() {
			t.Fatalf("%v: runs diverged: %+v vs %+v", sel, a, b)
		}
	}
}

// The broadcast hot path (replication off) must not pick up allocations
// from the replica machinery: one query's submit + drain cycle is pinned.
func TestBroadcastSubmitAllocsPinned(t *testing.T) {
	c, eng, _, _ := buildWith(t, nil)
	sampler := func() float64 { return 1e-3 }
	// Warm the trackers and the record pools to their steady-state capacity.
	for i := 0; i < 20; i++ {
		c.SubmitQuery(sampler)
		eng.RunAll()
	}
	avg := testing.AllocsPerRun(50, func() {
		c.SubmitQuery(sampler)
		eng.RunAll()
	})
	// Measured 0 allocs/cycle: the query, sub-query and attempt records
	// come from the cluster's free lists, their callbacks are bound once,
	// and the trackers' amortized growth stays below one allocation per
	// cycle (it was 136 with a closure per callback and pending maps).
	// 15% headroom on 0 is 0.
	const maxAllocs = 0
	if avg > maxAllocs {
		t.Fatalf("broadcast submit cycle allocates %.1f/op, pinned at %d", avg, maxAllocs)
	}
	if err := c.AuditPools(); err != nil {
		t.Fatal(err)
	}
}

// hedgedFaultCycle builds an R=3 SelHedged cluster with a sub-query
// timeout, a retry budget and one replica's uplink down, and returns one
// query's submit + drain cycle on it. Every lifecycle branch runs inside
// the cycle: the dead replica's attempts drop and fail over
// (ReadmitReplicas at the top of each cycle clears the suspect mark a
// repair event would), a fixed 0.3 ms hedge delay launches duplicates,
// and every third base draw is long enough to time out and retry.
func hedgedFaultCycle(t testing.TB) (*Cluster, func()) {
	c, eng, net, ft := buildReplicated(t, 3, func(cfg *Config) {
		cfg.Selection = SelHedged
		cfg.HedgeDelayS = 0.3e-3
		cfg.SubQueryTimeout = 2e-3
		cfg.RetryBudget = 4
	})
	killUplink(net, ft, c.Placement().Replicas(0)[0])
	draws := 0
	sampler := func() float64 {
		if draws++; draws%3 == 0 {
			return 3e-3
		}
		return 0.2e-3
	}
	return c, func() {
		c.ReadmitReplicas()
		c.SubmitQuery(sampler)
		eng.RunAll()
	}
}

// The replicated hot path is pinned the same way, on hedgedFaultCycle:
// failover, hedge, timeout and retry all run inside the measured cycle.
func TestReplicatedSubmitAllocsPinned(t *testing.T) {
	c, cycle := hedgedFaultCycle(t)
	for i := 0; i < 20; i++ {
		cycle()
	}
	before := *c.Stats()
	avg := testing.AllocsPerRun(50, cycle)
	st := c.Stats()
	for _, d := range []struct {
		name        string
		after, prev int
	}{
		{"failovers", st.Failovers, before.Failovers},
		{"hedges", st.Hedges, before.Hedges},
		{"timeouts", st.Timeouts, before.Timeouts},
		{"retries", st.Retries, before.Retries},
		{"drops", st.DroppedSub, before.DroppedSub},
	} {
		if d.after == d.prev {
			t.Errorf("no %s inside the measured cycles", d.name)
		}
	}
	// Measured 0 allocs/cycle, like the broadcast tier: failover, hedge,
	// timeout and retry reuse the same pooled records and bound timers.
	const maxAllocs = 0
	if avg > maxAllocs {
		t.Fatalf("replicated submit cycle allocates %.1f/op, pinned at %d", avg, maxAllocs)
	}
	if err := c.AuditPools(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReplicaFailover drives seeded crash schedules against the broadcast
// tier's retry path (R=0) and the replicated tier's failover and hedging
// (R=1..3), and asserts the two accounting identities: query conservation
// (submitted = completed + lost + orphans, orphans 0 after drain — a
// double-complete would push completed past submitted) and hedge
// termination (hedges = wins + wasted).
func FuzzReplicaFailover(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(4), uint16(0x5a5a))
	f.Add(int64(7), uint8(1), uint8(0), uint8(6), uint16(0xffff))
	f.Add(int64(42), uint8(2), uint8(1), uint8(3), uint16(0x0001))
	f.Add(int64(3), uint8(0), uint8(2), uint8(5), uint16(0x0f0f))
	f.Fuzz(func(t *testing.T, seed int64, r, sel, nq uint8, crashBits uint16) {
		R := int(r) % 4 // 0 (broadcast) ..3 replicas
		selection := SelectionPolicy(int(sel) % 3)
		hedgeDelay := 0.5e-3
		if R == 0 {
			selection, hedgeDelay = SelPrimary, 0 // the broadcast tier has one candidate
		}
		n := 1 + int(nq)%6 // 1..6 queries
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
		cfg.Replicas = R
		cfg.Selection = selection
		cfg.SubQueryTimeout = 5e-3
		cfg.RetryBudget = int(crashBits % 4)
		cfg.HedgeDelayS = hedgeDelay
		if cfg.Seed = seed; seed == 0 {
			cfg.Seed = 1
		}
		c, err := New(net, ft.Hosts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.InstallShortestRoutes(net.Active()); err != nil {
			t.Fatal(err)
		}
		// Crash schedule: bit i of crashBits isolates host i at a seeded
		// time; half the victims are repaired mid-run.
		sr := rng.Derive(cfg.Seed, "fuzz-crash")
		full := net.Active().Clone()
		for i := 0; i < 16; i++ {
			if crashBits&(1<<i) == 0 {
				continue
			}
			host := i
			at := sr.Float64() * 8e-3
			eng.Schedule(at, func() { killUplink(net, ft, host) })
			if sr.Float64() < 0.5 {
				eng.Schedule(at+4e-3, func() {
					net.SetActive(full.Clone())
					c.ReadmitReplicas()
				})
			}
		}
		for i := 0; i < n; i++ {
			eng.Schedule(float64(i)*1.5e-3, func() { c.SubmitQuery(func() float64 { return 0.5e-3 }) })
		}
		eng.RunAll()
		st := c.Stats()
		if st.Orphans() != 0 {
			t.Fatalf("orphans=%d after drain (submitted %d, completed %d, lost %d)",
				st.Orphans(), st.QueriesSubmitted, st.Queries, st.QueriesLost)
		}
		if st.Queries+st.QueriesLost != st.QueriesSubmitted {
			t.Fatalf("conservation violated: %d + %d != %d", st.Queries, st.QueriesLost, st.QueriesSubmitted)
		}
		if st.Hedges != st.HedgeWins+st.HedgeWasted {
			t.Fatalf("hedge identity violated: %d != %d + %d", st.Hedges, st.HedgeWins, st.HedgeWasted)
		}
		if err := eng.AuditInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := c.AuditPools(); err != nil {
			t.Fatal(err)
		}
	})
}
