package fattree

import (
	"testing"
	"testing/quick"

	"eprons/internal/flow"
	"eprons/internal/topology"
)

func build(t *testing.T, k int) *FatTree {
	t.Helper()
	cfg := DefaultConfig()
	cfg.K = k
	ft, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestStructureK4(t *testing.T) {
	ft := build(t, 4)
	if len(ft.Hosts) != 16 {
		t.Fatalf("hosts %d, want 16", len(ft.Hosts))
	}
	if len(ft.Edges) != 8 || len(ft.Aggs) != 8 || len(ft.Cores) != 4 {
		t.Fatalf("switches %d/%d/%d, want 8/8/4", len(ft.Edges), len(ft.Aggs), len(ft.Cores))
	}
	if ft.NumSwitches() != 20 {
		t.Fatalf("switch count %d, want 20", ft.NumSwitches())
	}
	// Links: 16 host + 4 pods * 4 edge-agg + 8 aggs * 2 cores = 16+16+16=48.
	if ft.Graph.NumLinks() != 48 {
		t.Fatalf("links %d, want 48", ft.Graph.NumLinks())
	}
	if !topology.NewActiveSet(ft.Graph).HostsConnected() {
		t.Fatal("full fat-tree must connect all hosts")
	}
}

func TestStructureScaling(t *testing.T) {
	for _, k := range []int{2, 4, 6, 8} {
		ft := build(t, k)
		if len(ft.Hosts) != k*k*k/4 {
			t.Fatalf("k=%d hosts %d, want %d", k, len(ft.Hosts), k*k*k/4)
		}
		if len(ft.Cores) != k*k/4 {
			t.Fatalf("k=%d cores %d, want %d", k, len(ft.Cores), k*k/4)
		}
		if !topology.NewActiveSet(ft.Graph).HostsConnected() {
			t.Fatalf("k=%d disconnected", k)
		}
		if n := ft.Graph.NumNodes(); len(ft.hostPod) != n || len(ft.hostEdge) != n {
			t.Fatalf("k=%d host coordinates sized %d/%d for %d nodes", k, len(ft.hostPod), len(ft.hostEdge), n)
		}
		for i, h := range ft.Hosts {
			if p := i / (k * k / 4); ft.HostPod(h) != p {
				t.Fatalf("k=%d host %d in pod %d, want %d", k, i, ft.HostPod(h), p)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.K = 3
	if _, err := New(cfg); err == nil {
		t.Fatal("odd K accepted")
	}
	cfg = DefaultConfig()
	cfg.K = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero K accepted")
	}
	cfg = DefaultConfig()
	cfg.LinkCapacityBps = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestPathCounts(t *testing.T) {
	ft := build(t, 4)
	// Hosts 0 and 1 share edge_0_0.
	sameEdge := ft.Paths(ft.Hosts[0], ft.Hosts[1])
	if len(sameEdge) != 1 || len(sameEdge[0]) != 3 {
		t.Fatalf("same-edge paths %d (len %d), want 1 (3)", len(sameEdge), len(sameEdge[0]))
	}
	// Hosts 0 and 2 are same pod, different edge.
	samePod := ft.Paths(ft.Hosts[0], ft.Hosts[2])
	if len(samePod) != 2 {
		t.Fatalf("same-pod paths %d, want 2", len(samePod))
	}
	for _, p := range samePod {
		if len(p) != 5 {
			t.Fatalf("same-pod path length %d, want 5", len(p))
		}
	}
	// Hosts 0 and 4 are in different pods.
	interPod := ft.Paths(ft.Hosts[0], ft.Hosts[4])
	if len(interPod) != 4 {
		t.Fatalf("inter-pod paths %d, want 4", len(interPod))
	}
	for _, p := range interPod {
		if len(p) != 7 {
			t.Fatalf("inter-pod path length %d, want 7", len(p))
		}
	}
	if ft.Paths(ft.Hosts[0], ft.Hosts[0]) != nil {
		t.Fatal("self paths must be nil")
	}
}

func TestPathsAreValidAndDistinct(t *testing.T) {
	ft := build(t, 4)
	for _, src := range ft.Hosts {
		for _, dst := range ft.Hosts {
			if src == dst {
				continue
			}
			paths := ft.Paths(src, dst)
			seen := map[string]bool{}
			for _, p := range paths {
				if !p.Valid(ft.Graph) {
					t.Fatalf("invalid path %v", p)
				}
				if p[0] != src || p[len(p)-1] != dst {
					t.Fatalf("path endpoints wrong: %v", p)
				}
				key := ""
				for _, n := range p {
					key += ft.Graph.Node(n).Name + "/"
				}
				if seen[key] {
					t.Fatalf("duplicate path %s", key)
				}
				seen[key] = true
			}
		}
	}
}

func TestAggregationPolicyCounts(t *testing.T) {
	ft := build(t, 4)
	// DESIGN.md scheme: 20/19/14/13 active switches for Aggregation 0-3.
	want := []int{20, 19, 14, 13}
	for j, w := range want {
		a := ft.AggregationPolicy(j)
		if got := a.ActiveSwitches(); got != w {
			t.Fatalf("aggregation %d: %d switches, want %d", j, got, w)
		}
		if !a.HostsConnected() {
			t.Fatalf("aggregation %d disconnects hosts", j)
		}
	}
	// Clamping.
	if ft.AggregationPolicy(-1).ActiveSwitches() != 20 {
		t.Fatal("negative level must clamp to 0")
	}
	if ft.AggregationPolicy(99).ActiveSwitches() != 13 {
		t.Fatal("huge level must clamp to max")
	}
	if ft.NumAggregationPolicies() != 4 {
		t.Fatalf("policies %d, want 4", ft.NumAggregationPolicies())
	}
}

func TestAggregationPolicyMonotonePower(t *testing.T) {
	ft := build(t, 4)
	prev := ft.AggregationPolicy(0).NetworkPowerW()
	for j := 1; j < ft.NumAggregationPolicies(); j++ {
		cur := ft.AggregationPolicy(j).NetworkPowerW()
		if cur > prev {
			t.Fatalf("power increased from level %d to %d: %g > %g", j-1, j, cur, prev)
		}
		prev = cur
	}
}

// Property: every pair of distinct hosts has at least one path that remains
// active under every aggregation policy (the policies never partition the
// network).
func TestQuickPolicyPreservesReachability(t *testing.T) {
	ft := build(t, 4)
	f := func(a, b, j8 uint8) bool {
		src := ft.Hosts[int(a)%len(ft.Hosts)]
		dst := ft.Hosts[int(b)%len(ft.Hosts)]
		if src == dst {
			return true
		}
		active := ft.AggregationPolicy(int(j8) % ft.NumAggregationPolicies())
		for _, p := range ft.Paths(src, dst) {
			if active.PathOn(p) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: enumerated path counts follow the fat-tree formula for any even k.
func TestQuickPathCountFormula(t *testing.T) {
	for _, k := range []int{2, 4, 6} {
		ft := build(t, k)
		half := k / 2
		f := func(a, b uint8) bool {
			src := ft.Hosts[int(a)%len(ft.Hosts)]
			dst := ft.Hosts[int(b)%len(ft.Hosts)]
			if src == dst {
				return ft.Paths(src, dst) == nil
			}
			n := len(ft.Paths(src, dst))
			sp, se := ft.HostPod(src), ft.hostEdge[src]
			dp, de := ft.HostPod(dst), ft.hostEdge[dst]
			switch {
			case sp == dp && se == de:
				return n == 1
			case sp == dp:
				return n == half
			default:
				return n == half*half
			}
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestPodPairElephantsK4 pins the k=4 layout: 12 elephants in
// source-pod-major order with consecutive IDs, pod sp's flow to pod dp
// leaving host dp of pod sp for host sp of pod dp, and no host sending
// two.
func TestPodPairElephantsK4(t *testing.T) {
	ft := build(t, 4)
	fs := ft.PodPairElephants(500, 2e8)
	if len(fs) != 12 {
		t.Fatalf("%d elephants, want 12", len(fs))
	}
	senders := map[topology.NodeID]bool{}
	i := 0
	for sp := 0; sp < 4; sp++ {
		for dp := 0; dp < 4; dp++ {
			if sp == dp {
				continue
			}
			f := fs[i]
			want := flow.Flow{ID: flow.ID(500 + i), Src: ft.Hosts[sp*4+dp], Dst: ft.Hosts[dp*4+sp],
				DemandBps: 2e8, Class: flow.Background}
			if f != want {
				t.Fatalf("elephant %d = %+v, want %+v", i, f, want)
			}
			if ft.HostPod(f.Src) != sp || ft.HostPod(f.Dst) != dp {
				t.Fatalf("elephant %d runs pod %d→%d, want %d→%d", i, ft.HostPod(f.Src), ft.HostPod(f.Dst), sp, dp)
			}
			if senders[f.Src] {
				t.Fatalf("host %d sends two elephants", f.Src)
			}
			senders[f.Src] = true
			i++
		}
	}
}
