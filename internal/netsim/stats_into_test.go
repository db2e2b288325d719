package netsim

import (
	"testing"

	"eprons/internal/flow"
	"eprons/internal/topology"
)

// TestStatsIntoVariants pins the stats pollers against the raw counters
// they read: per-direction link bytes summed per link, the busier
// direction's utilization, per-flow offered rates. It also pins that stale
// keys are cleared on refill and that polling with retained maps allocates
// nothing.
func TestStatsIntoVariants(t *testing.T) {
	eng, n := benchChain(t, DefaultConfig())
	n.SendMessage(1, 6000, nil, nil)
	eng.RunAll()

	// The raw counters: 6000 bytes on the forward direction of each of the
	// chain's four links, none on the reverse, and 6000 on flow 1. Each
	// link's A end is the hop's sender, so forward is the even direction.
	const window = 2.0
	for i := range n.links {
		want := int64(0)
		if i%2 == 0 {
			want = 6000
		}
		if got := n.links[i].bytes; got != want {
			t.Fatalf("direction %d carried %d bytes, want %d", i, got, want)
		}
	}
	if len(n.flowBytes) != 1 || n.flowBytes[1] != 6000 {
		t.Fatalf("flow bytes %v, want flow 1: 6000", n.flowBytes)
	}

	// Seed the scratch maps with stale garbage that must disappear.
	lb := n.LinkBytesInto(map[topology.LinkID]int64{999: 1})
	lu := n.LinkUtilizationInto(map[topology.LinkID]float64{999: 1}, window)
	fr := n.FlowRatesInto(map[flow.ID]float64{999: 1}, window)
	if len(lb) != 4 || len(lu) != 4 {
		t.Fatalf("LinkBytesInto/LinkUtilizationInto: %d/%d links, want 4 (stale keys kept?)", len(lb), len(lu))
	}
	for lid := topology.LinkID(0); lid < 4; lid++ {
		if lb[lid] != 6000 {
			t.Fatalf("LinkBytesInto[%d] = %d, want 6000", lid, lb[lid])
		}
		if want := 6000.0 * 8 / window / n.g.Link(lid).CapacityBps; lu[lid] != want {
			t.Fatalf("LinkUtilizationInto[%d] = %g, want %g", lid, lu[lid], want)
		}
	}
	if len(fr) != 1 || fr[1] != 6000.0*8/window {
		t.Fatalf("FlowRatesInto = %v, want flow 1: %g", fr, 6000.0*8/window)
	}

	// A nil map allocates one with the same contents.
	if got := n.FlowRatesInto(nil, window); len(got) != 1 || got[1] != fr[1] {
		t.Fatalf("FlowRatesInto(nil) = %v, want %v", got, fr)
	}

	// Window <= 0 clears and returns empty.
	if got := n.LinkUtilizationInto(lu, 0); len(got) != 0 {
		t.Fatalf("LinkUtilizationInto(window=0) = %d entries, want 0", len(got))
	}
	if got := n.FlowRatesInto(fr, -1); len(got) != 0 {
		t.Fatalf("FlowRatesInto(window<0) = %d entries, want 0", len(got))
	}

	// Steady-state polling through a retained scratch map is allocation
	// free.
	lb2 := n.LinkBytesInto(nil)
	lu2 := n.LinkUtilizationInto(nil, window)
	fr2 := n.FlowRatesInto(nil, window)
	allocs := testing.AllocsPerRun(100, func() {
		lb2 = n.LinkBytesInto(lb2)
		lu2 = n.LinkUtilizationInto(lu2, window)
		fr2 = n.FlowRatesInto(fr2, window)
	})
	if allocs != 0 {
		t.Fatalf("Into pollers allocated %.1f per run, want 0", allocs)
	}
}
