package cluster

import "testing"

// BenchmarkClusterQuery times one query's submit + drain cycle on a warm
// cluster: the sub-query lifecycle from send to reply, with the query,
// sub-query and attempt records drawn from their free lists. broadcast is
// the 15-ISN fan-out of the 16-host cell; replica-r3-hedged is
// hedgedFaultCycle, whose cycle runs failover, hedging, timeouts and
// retries. Two hundred cycles before the timer grow the pools, the engine
// and the sample buffers to their peak, and every cycle empties the two
// sample-keeping latency trackers and the hedge RTT quantile (keeping
// their buffers), so B/op and allocs/op count what a cycle allocates and
// do not depend on b.N.
func BenchmarkClusterQuery(b *testing.B) {
	b.Run("broadcast", func(b *testing.B) {
		c, eng, _, _ := buildWith(b, nil)
		sampler := func() float64 { return 1e-3 }
		benchCycles(b, c, func() {
			c.SubmitQuery(sampler)
			eng.RunAll()
		})
	})
	b.Run("replica-r3-hedged", func(b *testing.B) {
		c, cycle := hedgedFaultCycle(b)
		benchCycles(b, c, cycle)
	})
}

func benchCycles(b *testing.B, c *Cluster, cycle func()) {
	reset := func() {
		c.stats.QueryLatency.Reset()
		c.stats.NetReqLat.Reset()
		c.rtt.Reset()
	}
	for i := 0; i < 200; i++ {
		cycle()
	}
	reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
		reset()
	}
}
