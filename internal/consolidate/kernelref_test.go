package consolidate

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/leafspine"
	"eprons/internal/topology"
)

// This file freezes the node-path consolidation kernel — every candidate
// built with Paths, resolved hop by hop and reserved in maps — as the
// reference the index-form Greedy and Balance must reproduce bit for bit.

// refFabric is a fabric that can also enumerate its candidates as node
// paths.
type refFabric interface {
	Fabric
	Paths(src, dst topology.NodeID) []topology.Path
}

// refResult is Result with the map reservations of the reference kernel.
type refResult struct {
	Feasible      bool
	Unplaced      []flow.ID
	Paths         map[flow.ID]topology.Path
	Active        *topology.ActiveSet
	ReservedBps   map[int]float64
	ActualBps     map[int]float64
	NetworkPowerW float64
}

func newRefResult(g *topology.Graph) *refResult {
	return &refResult{
		Feasible:    true,
		Paths:       make(map[flow.ID]topology.Path),
		Active:      topology.NewEmptyActiveSet(g),
		ReservedBps: make(map[int]float64),
		ActualBps:   make(map[int]float64),
	}
}

func refOrder(flows []flow.Flow, cfg Config) []flow.Flow {
	order := make([]flow.Flow, len(flows))
	copy(order, flows)
	sort.SliceStable(order, func(i, j int) bool {
		return cfg.effective(order[i]) > cfg.effective(order[j])
	})
	return order
}

func refGreedy(ft refFabric, flows []flow.Flow, cfg Config) *refResult {
	g := ft.Topo()
	res := newRefResult(g)
	var dirScratch []int
	for _, f := range refOrder(flows, cfg) {
		paths := ft.Paths(f.Src, f.Dst)
		if len(paths) == 0 {
			res.Feasible = false
			res.Unplaced = append(res.Unplaced, f.ID)
			continue
		}
		eff := cfg.effective(f)
		bestIdx, bestNew := -1, 1<<30
		for idx, p := range paths {
			if cfg.Restrict != nil && !cfg.Restrict.PathOn(p) {
				continue
			}
			dirScratch = p.DirLinksInto(g, dirScratch)
			if !refFits(g, res, dirScratch, eff, cfg.SafetyMarginBps) {
				continue
			}
			newSw := refNewSwitches(g, res.Active, p)
			if newSw < bestNew {
				bestNew = newSw
				bestIdx = idx
			}
		}
		if bestIdx < 0 {
			res.Feasible = false
			res.Unplaced = append(res.Unplaced, f.ID)
			continue
		}
		refCommit(g, res, f, paths[bestIdx], eff)
	}
	if cfg.BackupPaths {
		refActivateBackups(ft, flows, cfg, res)
	}
	res.NetworkPowerW = res.Active.NetworkPowerW()
	return res
}

func refActivateBackups(ft refFabric, flows []flow.Flow, cfg Config, res *refResult) {
	g := ft.Topo()
	for _, f := range flows {
		if f.Class != flow.LatencySensitive {
			continue
		}
		primary, ok := res.Paths[f.ID]
		if !ok {
			continue
		}
		onPrimary := map[topology.NodeID]bool{}
		for _, n := range primary {
			onPrimary[n] = true
		}
		var best topology.Path
		bestOverlap := 1 << 30
		for _, p := range ft.Paths(f.Src, f.Dst) {
			if cfg.Restrict != nil && !cfg.Restrict.PathOn(p) {
				continue
			}
			overlap := 0
			same := true
			for _, n := range p {
				if onPrimary[n] {
					overlap++
				} else {
					same = false
				}
			}
			if same {
				continue
			}
			if overlap < bestOverlap {
				bestOverlap = overlap
				best = p
			}
		}
		for _, lid := range best.Links(g) {
			res.Active.SetLink(lid, true)
		}
	}
}

func refFits(g *topology.Graph, res *refResult, dirs []int, eff, margin float64) bool {
	for _, d := range dirs {
		cap := g.Link(topology.LinkID(d/2)).CapacityBps - margin
		if res.ReservedBps[d]+eff > cap {
			return false
		}
	}
	return true
}

func refNewSwitches(g *topology.Graph, active *topology.ActiveSet, p topology.Path) int {
	n := 0
	for _, node := range p {
		if g.Node(node).Kind.IsSwitch() && !active.NodeOn(node) {
			n++
		}
	}
	return n
}

func refCommit(g *topology.Graph, res *refResult, f flow.Flow, p topology.Path, eff float64) {
	res.Paths[f.ID] = p
	links := p.Links(g)
	dirs := p.DirLinks(g)
	for i, lid := range links {
		res.ReservedBps[dirs[i]] += eff
		res.ActualBps[dirs[i]] += f.DemandBps
		res.Active.SetLink(lid, true)
	}
}

func refBalance(ft refFabric, flows []flow.Flow, cfg Config) *refResult {
	g := ft.Topo()
	res := newRefResult(g)
	var dirScratch []int
	for _, f := range refOrder(flows, cfg) {
		eff := cfg.effective(f)
		paths := ft.Paths(f.Src, f.Dst)
		bestIdx := -1
		bestMax, bestSum := 0.0, 0.0
		for idx, p := range paths {
			if cfg.Restrict != nil && !cfg.Restrict.PathOn(p) {
				continue
			}
			dirScratch = p.DirLinksInto(g, dirScratch)
			if !refFits(g, res, dirScratch, eff, cfg.SafetyMarginBps) {
				continue
			}
			maxU, sum := 0.0, 0.0
			for _, d := range dirScratch {
				u := (res.ReservedBps[d] + eff) / g.Link(topology.LinkID(d/2)).CapacityBps
				if u > maxU {
					maxU = u
				}
				sum += res.ReservedBps[d]
			}
			if bestIdx < 0 || maxU < bestMax-1e-12 || (maxU < bestMax+1e-12 && sum < bestSum) {
				bestIdx, bestMax, bestSum = idx, maxU, sum
			}
		}
		if bestIdx < 0 {
			res.Feasible = false
			res.Unplaced = append(res.Unplaced, f.ID)
			continue
		}
		refCommit(g, res, f, paths[bestIdx], eff)
	}
	res.NetworkPowerW = res.Active.NetworkPowerW()
	return res
}

// sameAsRef reports the first difference between a kernel result and the
// reference's, or "" when they agree bit for bit.
func sameAsRef(g *topology.Graph, got *Result, want *refResult) string {
	switch {
	case got.Feasible != want.Feasible:
		return "Feasible"
	case !reflect.DeepEqual(got.Unplaced, want.Unplaced):
		return "Unplaced"
	case !reflect.DeepEqual(got.Paths, want.Paths):
		return "Paths"
	case math.Float64bits(got.NetworkPowerW) != math.Float64bits(want.NetworkPowerW):
		return "NetworkPowerW"
	case len(got.ReservedBps) != 2*g.NumLinks() || len(got.ActualBps) != 2*g.NumLinks():
		return "reservation length"
	}
	for d := range got.ReservedBps {
		if math.Float64bits(got.ReservedBps[d]) != math.Float64bits(want.ReservedBps[d]) {
			return "ReservedBps"
		}
		if math.Float64bits(got.ActualBps[d]) != math.Float64bits(want.ActualBps[d]) {
			return "ActualBps"
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		if got.Active.NodeOn(topology.NodeID(n)) != want.Active.NodeOn(topology.NodeID(n)) {
			return "Active nodes"
		}
	}
	for l := 0; l < g.NumLinks(); l++ {
		if got.Active.LinkOn(topology.LinkID(l)) != want.Active.LinkOn(topology.LinkID(l)) {
			return "Active links"
		}
	}
	return ""
}

// FuzzConsolidateKernel: on k=4 and k=8 fat-trees, random flow sets of
// both classes under a random scale factor, aggregation-policy restriction
// and backup-path setting must place exactly as the frozen node-path
// kernel does — same paths, unplaced flows and active elements, and
// bit-identical reservations and power — for both Greedy and Balance.
func FuzzConsolidateKernel(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(12), uint8(1), int8(-1), false)
	f.Add(int64(2), uint8(1), uint8(60), uint8(3), int8(2), true)
	f.Add(int64(3), uint8(0), uint8(40), uint8(6), int8(3), true)
	f.Add(int64(4), uint8(1), uint8(200), uint8(2), int8(9), false)

	var fabrics []*fattree.FatTree
	for _, k := range []int{4, 8} {
		cfg := fattree.DefaultConfig()
		cfg.K = k
		ft, err := fattree.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		fabrics = append(fabrics, ft)
	}

	f.Fuzz(func(t *testing.T, seed int64, kSel, nFlows, scaleK uint8, policy int8, backup bool) {
		ft := fabrics[int(kSel)%len(fabrics)]
		r := rand.New(rand.NewSource(seed))
		flows := make([]flow.Flow, 0, nFlows)
		for i := 0; i < int(nFlows); i++ {
			src := ft.Hosts[r.Intn(len(ft.Hosts))]
			dst := ft.Hosts[r.Intn(len(ft.Hosts))]
			if src == dst {
				continue
			}
			class := flow.LatencySensitive
			if r.Intn(3) == 0 {
				class = flow.Background
			}
			// Squared uniform: mostly mice, some elephants that crowd
			// links to the margin and beyond.
			u := r.Float64()
			flows = append(flows, flow.Flow{
				ID: flow.ID(i), Src: src, Dst: dst, DemandBps: 1e5 + u*u*600e6, Class: class,
			})
		}
		cfg := Config{
			ScaleK:          float64(1 + int(scaleK)%6),
			SafetyMarginBps: 50e6,
			BackupPaths:     backup,
		}
		if policy >= 0 {
			cfg.Restrict = ft.AggregationPolicy(int(policy) % ft.NumAggregationPolicies())
		}
		g := ft.Graph

		greedy, err := Greedy(ft, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameAsRef(g, greedy, refGreedy(ft, flows, cfg)); diff != "" {
			t.Fatalf("Greedy differs from the reference in %s (k=%d, %d flows, %+v)", diff, ft.Cfg.K, len(flows), cfg)
		}
		balanced, err := Balance(ft, flows, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if diff := sameAsRef(g, balanced, refBalance(ft, flows, cfg)); diff != "" {
			t.Fatalf("Balance differs from the reference in %s (k=%d, %d flows, %+v)", diff, ft.Cfg.K, len(flows), cfg)
		}
	})
}

// testFabrics returns the fabrics the index-form contract is checked on:
// fat-trees at k = 2, 4, 8 and the default leaf-spine.
func testFabrics(t *testing.T) map[string]refFabric {
	t.Helper()
	out := map[string]refFabric{}
	for _, k := range []int{2, 4, 8} {
		cfg := fattree.DefaultConfig()
		cfg.K = k
		ft, err := fattree.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("fattree k=%d", k)] = ft
	}
	ls, err := leafspine.New(leafspine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out["leafspine"] = ls
	return out
}

// fabricHosts lists a fabric's hosts.
func fabricHosts(g *topology.Graph) []topology.NodeID {
	var hosts []topology.NodeID
	for _, n := range g.Nodes() {
		if n.Kind == topology.Host {
			hosts = append(hosts, n.ID)
		}
	}
	return hosts
}

// TestPathDirsMatchNodePaths: for every ordered host pair and candidate
// index, NumPaths counts the Paths enumeration, PathByIndexInto builds its
// idx'th path, and PathDirsInto equals that path's resolved DirLinks.
func TestPathDirsMatchNodePaths(t *testing.T) {
	for name, fab := range testFabrics(t) {
		g := fab.Topo()
		hosts := fabricHosts(g)
		var dirs []int
		var path topology.Path
		for _, src := range hosts {
			for _, dst := range hosts {
				paths := fab.Paths(src, dst)
				n := fab.NumPaths(src, dst)
				if n != len(paths) {
					t.Fatalf("%s: NumPaths(%d,%d) = %d, Paths has %d", name, src, dst, n, len(paths))
				}
				for idx := 0; idx < n; idx++ {
					path = fab.PathByIndexInto(src, dst, idx, path)
					if !reflect.DeepEqual(path, paths[idx]) {
						t.Fatalf("%s: PathByIndexInto(%d,%d,%d) = %v, want %v", name, src, dst, idx, path, paths[idx])
					}
					dirs = fab.PathDirsInto(src, dst, idx, dirs)
					if want := paths[idx].DirLinks(g); !reflect.DeepEqual(dirs, want) {
						t.Fatalf("%s: PathDirsInto(%d,%d,%d) = %v, want %v", name, src, dst, idx, dirs, want)
					}
				}
			}
		}
	}
}

// TestDirsOnMatchesPathOn: under every aggregation policy (and every
// leaf-spine spine policy), a candidate's DirsOn agrees with PathOn.
func TestDirsOnMatchesPathOn(t *testing.T) {
	for name, fab := range testFabrics(t) {
		var policies []*topology.ActiveSet
		switch f := fab.(type) {
		case *fattree.FatTree:
			for j := 0; j < f.NumAggregationPolicies(); j++ {
				policies = append(policies, f.AggregationPolicy(j))
			}
		case *leafspine.LeafSpine:
			for j := 0; j < f.NumSpinePolicies(); j++ {
				policies = append(policies, f.SpinePolicy(j))
			}
		}
		g := fab.Topo()
		hosts := fabricHosts(g)
		var dirs []int
		for j, active := range policies {
			on, off := 0, 0
			for _, src := range hosts {
				for _, dst := range hosts {
					for idx, p := range fab.Paths(src, dst) {
						dirs = fab.PathDirsInto(src, dst, idx, dirs)
						got, want := active.DirsOn(dirs), active.PathOn(p)
						if got != want {
							t.Fatalf("%s policy %d: DirsOn = %v, PathOn = %v for %v", name, j, got, want, p)
						}
						if want {
							on++
						} else {
							off++
						}
					}
				}
			}
			if on == 0 || (j > 0 && off == 0) {
				t.Fatalf("%s policy %d: %d candidates on, %d off", name, j, on, off)
			}
		}
	}
}
