// Package consolidate implements latency-aware traffic consolidation
// (paper §II and §IV-B): choose per-flow paths and the minimal set of
// active switches and links such that every flow fits, where
// latency-sensitive flows reserve K times their measured demand to keep the
// links they traverse lightly utilized.
//
// Two solvers are provided, mirroring the paper:
//
//   - Exact builds the optimization model (eq. 2–9) in its path-based form
//     and solves it with the in-repo branch-and-bound MILP solver (the
//     paper uses CPLEX). Exact is used for small instances and as the
//     quality reference.
//   - Greedy is the deployment path: a first-fit-decreasing bin-packing
//     heuristic in the spirit of ElasticTree's greedy algorithm, which the
//     paper adopts because exact solving "can be more than 42 min" at scale.
package consolidate

import (
	"fmt"
	"slices"

	"eprons/internal/flow"
	"eprons/internal/lp"
	"eprons/internal/milp"
	"eprons/internal/topology"
)

// Fabric is the topology abstraction the consolidators work over: a graph
// plus an indexed enumeration of the equal-cost candidate paths between
// hosts. The paper's model "is independent of the network topology"
// (§IV-B); fat-tree and leaf-spine both implement this interface.
//
// Candidates are addressed by index so the consolidators can score each
// one as directed-link indices and build the node path of the winner
// only.
type Fabric interface {
	// Topo returns the graph (nodes, links, capacities, power).
	Topo() *topology.Graph
	// NumPaths returns the number of candidate paths from src to dst (0
	// when src == dst).
	NumPaths(src, dst topology.NodeID) int
	// PathDirsInto returns the directed-link indices (see
	// topology.Link.DirIndex) of candidate idx in hop order, built into
	// buf's backing array (buf may be nil).
	PathDirsInto(src, dst topology.NodeID, idx int, buf []int) []int
	// PathByIndexInto returns candidate idx as a node path, built into
	// buf's backing array (buf may be nil).
	PathByIndexInto(src, dst topology.NodeID, idx int, buf topology.Path) topology.Path
}

// Config parameterizes one consolidation round.
type Config struct {
	// ScaleK is the bandwidth scale factor applied to latency-sensitive
	// flows (paper: K in [1, Kmax]). 0 is treated as 1.
	ScaleK float64
	// SafetyMarginBps is subtracted from every link capacity to absorb
	// prediction error (paper: 50 Mbps on 1 Gbps links).
	SafetyMarginBps float64
	// ScaleBackground also applies K to background flows, matching a
	// literal reading of eq. (5). The paper's examples (Fig 2) scale only
	// the latency-sensitive flows, which is the default.
	ScaleBackground bool
	// Restrict, when non-nil, limits placement to elements active in the
	// given set (used to consolidate within a fixed aggregation policy).
	Restrict *topology.ActiveSet
	// BackupPaths additionally powers the elements of one alternate path
	// per latency-sensitive flow without reserving bandwidth on it — the
	// "backup paths" of §IV-B that mask the measured 72.5 s switch
	// power-on delay during re-routing. It costs switch power and is off
	// by default.
	BackupPaths bool
}

// effective returns the reserved bandwidth for a flow under cfg.
func (cfg Config) effective(f flow.Flow) float64 {
	k := cfg.ScaleK
	if k < 1 {
		k = 1
	}
	if f.Class == flow.LatencySensitive || cfg.ScaleBackground {
		return k * f.DemandBps
	}
	return f.DemandBps
}

// Result is a consolidation outcome.
type Result struct {
	// Feasible is false if some flow could not be placed; Unplaced lists
	// the offenders.
	Feasible bool
	Unplaced []flow.ID
	// Paths maps each placed flow to its path.
	Paths map[flow.ID]topology.Path
	// Active is the powered subnet implied by the paths.
	Active *topology.ActiveSet
	// ReservedBps is the reserved (scaled) bandwidth per DIRECTED link,
	// indexed by topology.Link.DirIndex (length 2*NumLinks, zero on links
	// no flow uses) — links are full duplex and the model's flow
	// variables are per direction (eq. 4).
	ReservedBps []float64
	// ActualBps is the unscaled measured demand per directed link, laid
	// out like ReservedBps; utilization for latency models uses this,
	// since the K-scaling only reserves headroom and does not add traffic.
	ActualBps []float64
	// NetworkPowerW is the power of the active subnet.
	NetworkPowerW float64
	// Optimal is set by Exact when branch and bound proved optimality
	// (false for Greedy/Balance results and node-limited MILP runs).
	Optimal bool

	// arena backs the node paths Greedy and Balance place; its length is
	// the part already handed out.
	arena topology.Path
}

// Utilization returns actual utilization (0..1+) of a directed link.
func (r *Result) Utilization(g *topology.Graph, dir int) float64 {
	return r.ActualBps[dir] / g.Link(topology.LinkID(dir/2)).CapacityBps
}

// PathUtilizations returns the actual utilization of each directed link
// along a placed flow's path, or nil if the flow is unplaced.
func (r *Result) PathUtilizations(g *topology.Graph, id flow.ID) []float64 {
	return r.PathUtilizationsInto(g, id, nil)
}

// PathUtilizationsInto appends the actual utilization of each directed
// link along a placed flow's path to buf, in hop order, and returns the
// extended slice; buf comes back unchanged if the flow is unplaced.
// Callers pricing many flows reuse one buffer.
func (r *Result) PathUtilizationsInto(g *topology.Graph, id flow.ID, buf []float64) []float64 {
	p, ok := r.Paths[id]
	if !ok {
		return buf
	}
	for i := 0; i+1 < len(p); i++ {
		buf = append(buf, r.Utilization(g, g.HopDir(p[i], p[i+1])))
	}
	return buf
}

// pending is one flow of the placement order: its index in the caller's
// flow slice and its reserved bandwidth under the round's Config.
type pending struct {
	eff float64
	idx int
}

// newResult validates the flows and returns their placement order —
// descending reserved bandwidth, stable — with an empty feasible result
// sized for g.
func newResult(g *topology.Graph, flows []flow.Flow, cfg Config) ([]pending, *Result, error) {
	order := make([]pending, len(flows))
	for i, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, nil, err
		}
		order[i] = pending{eff: cfg.effective(f), idx: i}
	}
	slices.SortStableFunc(order, func(a, b pending) int {
		switch {
		case a.eff > b.eff:
			return -1
		case a.eff < b.eff:
			return 1
		}
		return 0
	})
	return order, emptyResult(g, len(flows)), nil
}

// emptyResult returns a feasible result with nothing placed and dense
// per-direction reservations for g.
func emptyResult(g *topology.Graph, nflows int) *Result {
	return &Result{
		Feasible:    true,
		Paths:       make(map[flow.ID]topology.Path, nflows),
		Active:      topology.NewEmptyActiveSet(g),
		ReservedBps: make([]float64, 2*g.NumLinks()),
		ActualBps:   make([]float64, 2*g.NumLinks()),
	}
}

// Greedy places flows with first-fit-decreasing bin packing. Flows are
// sorted by descending reserved bandwidth; each is assigned the candidate
// path that (a) has room on every link and (b) activates the fewest new
// switches, breaking ties toward the "leftmost" (lowest-ID) path so traffic
// piles into one corner of the topology and the rest can sleep.
func Greedy(ft Fabric, flows []flow.Flow, cfg Config) (*Result, error) {
	g := ft.Topo()
	order, res, err := newResult(g, flows, cfg)
	if err != nil {
		return nil, err
	}
	var dirs []int
	for i, o := range order {
		f, eff := flows[o.idx], o.eff
		bestIdx, bestNew := -1, 1<<30
		for idx, n := 0, ft.NumPaths(f.Src, f.Dst); idx < n; idx++ {
			dirs = ft.PathDirsInto(f.Src, f.Dst, idx, dirs)
			if cfg.Restrict != nil && !cfg.Restrict.DirsOn(dirs) {
				continue
			}
			if !fits(g, res, dirs, eff, cfg.SafetyMarginBps) {
				continue
			}
			newSw := newSwitches(g, res.Active, dirs)
			if newSw < bestNew {
				bestNew = newSw
				bestIdx = idx
			}
			if bestNew == 0 {
				break // no later candidate can beat it under the strict <
			}
		}
		if bestIdx < 0 {
			res.Feasible = false
			res.Unplaced = append(res.Unplaced, f.ID)
			continue
		}
		dirs = commitIndex(ft, res, f, bestIdx, eff, dirs, len(order)-i)
	}
	if cfg.BackupPaths {
		activateBackups(ft, flows, cfg, res)
	}
	res.NetworkPowerW = res.Active.NetworkPowerW()
	return res, nil
}

// activateBackups powers one alternate (maximally node-disjoint) path per
// latency-sensitive flow. Backups carry no reservation; they exist so a
// re-route never waits on a switch boot.
func activateBackups(ft Fabric, flows []flow.Flow, cfg Config, res *Result) {
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
		for _, p := range candidates(ft, f.Src, f.Dst, cfg.Restrict) {
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

// candidates returns the candidate paths from src to dst that lie inside
// restrict (all of them when restrict is nil), in Fabric index order. The
// solvers that need every candidate as a node path — Exact's model and
// the backup-path search — enumerate through it.
func candidates(ft Fabric, src, dst topology.NodeID, restrict *topology.ActiveSet) []topology.Path {
	var out []topology.Path
	var dirs []int
	for idx, n := 0, ft.NumPaths(src, dst); idx < n; idx++ {
		if restrict != nil {
			dirs = ft.PathDirsInto(src, dst, idx, dirs)
			if !restrict.DirsOn(dirs) {
				continue
			}
		}
		out = append(out, ft.PathByIndexInto(src, dst, idx, nil))
	}
	return out
}

// fits reports whether eff more bits per second fit on every directed
// link of a candidate under the safety margin.
func fits(g *topology.Graph, res *Result, dirs []int, eff, margin float64) bool {
	for _, d := range dirs {
		cap := g.Link(topology.LinkID(d/2)).CapacityBps - margin
		if res.ReservedBps[d]+eff > cap {
			return false
		}
	}
	return true
}

// newSwitches counts the switches a candidate would power on. A path's
// nodes are its source host plus the head of every directed link, and the
// host never counts.
func newSwitches(g *topology.Graph, active *topology.ActiveSet, dirs []int) int {
	n := 0
	for _, d := range dirs {
		node := g.DirHead(d)
		if g.Node(node).Kind.IsSwitch() && !active.NodeOn(node) {
			n++
		}
	}
	return n
}

// commitIndex places f on the fabric's candidate idx — the only candidate
// of the scan built as a node path — and returns its directed links in
// the dirs scratch. The path is built into the result's arena and stored
// capacity-clipped, so appending to it copies instead of overwriting the
// next path. An arena without room for it is replaced by one sized for
// the left flows (f included) at this path's length: a round whose paths
// share one length allocates a single arena.
func commitIndex(ft Fabric, res *Result, f flow.Flow, idx int, eff float64, dirs []int, left int) []int {
	dirs = ft.PathDirsInto(f.Src, f.Dst, idx, dirs)
	if n := len(dirs) + 1; cap(res.arena)-len(res.arena) < n {
		res.arena = make(topology.Path, 0, n*left)
	}
	used := len(res.arena)
	p := ft.PathByIndexInto(f.Src, f.Dst, idx, res.arena[used:])
	res.arena = res.arena[:used+len(p)]
	commit(res, f, p[:len(p):len(p)], dirs, eff)
	return dirs
}

// commit records p (whose directed links are dirs) as f's path, reserves
// eff and f's demand on every direction, and powers the links on.
func commit(res *Result, f flow.Flow, p topology.Path, dirs []int, eff float64) {
	res.Paths[f.ID] = p
	for _, d := range dirs {
		res.ReservedBps[d] += eff
		res.ActualBps[d] += f.DemandBps
		res.Active.SetLink(topology.LinkID(d/2), true)
	}
}

// Balance places flows like an ECMP load balancer instead of a
// consolidator: each flow takes the candidate path minimizing the maximum
// post-placement link utilization (ties toward lower total reservation).
// Experiments use it to route traffic within a FIXED aggregation policy
// (Fig 10/11), where the active subnet is chosen by policy and routing
// should spread load rather than empty switches.
func Balance(ft Fabric, flows []flow.Flow, cfg Config) (*Result, error) {
	g := ft.Topo()
	order, res, err := newResult(g, flows, cfg)
	if err != nil {
		return nil, err
	}
	var dirs []int
	for i, o := range order {
		f, eff := flows[o.idx], o.eff
		bestIdx := -1
		bestMax, bestSum := 0.0, 0.0
		for idx, n := 0, ft.NumPaths(f.Src, f.Dst); idx < n; idx++ {
			dirs = ft.PathDirsInto(f.Src, f.Dst, idx, dirs)
			if cfg.Restrict != nil && !cfg.Restrict.DirsOn(dirs) {
				continue
			}
			if !fits(g, res, dirs, eff, cfg.SafetyMarginBps) {
				continue
			}
			maxU, sum := 0.0, 0.0
			for _, d := range dirs {
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
		dirs = commitIndex(ft, res, f, bestIdx, eff, dirs, len(order)-i)
	}
	res.NetworkPowerW = res.Active.NetworkPowerW()
	return res, nil
}

// Exact solves the consolidation MILP. Variable layout:
//
//	z[i][p] — flow i routed on its p-th candidate path (binary, eq. 9's
//	          no-splitting rule is implied by choosing one path)
//	x[l]    — link l active (binary, eq. 4's capacity coupling)
//	y[s]    — switch s active (binary, eq. 7/8's switch coupling)
//
// minimizing Σ x_l·l(u,v) + Σ y_s·s(u) (eq. 2's network terms; the server
// term N·Pserver is a constant at this layer and added by the joint
// planner).
func Exact(ft Fabric, flows []flow.Flow, cfg Config, opt milp.Options) (*Result, error) {
	prob, binaries, layout, err := buildExactModel(ft, flows, cfg)
	if err != nil {
		return nil, err
	}
	if prob == nil {
		return &Result{Feasible: false, Unplaced: layout.unplaced}, nil
	}
	g := ft.Topo()
	cand := layout.cand
	zBase := layout.zBase

	sol := milp.Solve(&milp.Problem{LP: prob, Binary: binaries}, opt)
	if sol.Status == milp.Infeasible || sol.Status == milp.Unbounded || sol.X == nil {
		return &Result{Feasible: false}, nil
	}
	optimal := sol.Status == milp.Optimal

	res := emptyResult(g, len(flows))
	for i, f := range flows {
		chosen := -1
		for p := range cand[i] {
			if sol.X[zBase[i]+p] > 0.5 {
				chosen = p
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("consolidate: MILP returned no path for flow %d", f.ID)
		}
		p := cand[i][chosen]
		commit(res, f, p, p.DirLinks(g), cfg.effective(f))
	}
	res.NetworkPowerW = res.Active.NetworkPowerW()
	res.Optimal = optimal
	return res, nil
}

// exactLayout records the variable layout of the MILP built by
// buildExactModel (exposed to tests that probe the relaxation).
type exactLayout struct {
	cand     [][]topology.Path
	zBase    []int
	links    []topology.LinkID
	switches []topology.NodeID
	xBase    int
	yBase    int
	unplaced []flow.ID
}

// buildExactModel constructs the path-based MILP of eq. (2)–(9). A nil
// problem with layout.unplaced set means some flow had no candidate path.
func buildExactModel(ft Fabric, flows []flow.Flow, cfg Config) (*lp.Problem, []int, *exactLayout, error) {
	for _, f := range flows {
		if err := f.Validate(); err != nil {
			return nil, nil, nil, err
		}
	}
	g := ft.Topo()

	// Candidate paths per flow, filtered by Restrict.
	cand := make([][]topology.Path, len(flows))
	for i, f := range flows {
		cand[i] = candidates(ft, f.Src, f.Dst, cfg.Restrict)
		if len(cand[i]) == 0 {
			return nil, nil, &exactLayout{unplaced: []flow.ID{f.ID}}, nil
		}
	}

	// Collect the links and switches reachable by any candidate path.
	linkIdx := map[topology.LinkID]int{}
	switchIdx := map[topology.NodeID]int{}
	var links []topology.LinkID
	var switches []topology.NodeID
	for i := range flows {
		for _, p := range cand[i] {
			for _, lid := range p.Links(g) {
				if _, ok := linkIdx[lid]; !ok {
					linkIdx[lid] = len(links)
					links = append(links, lid)
				}
			}
			for _, n := range p {
				if g.Node(n).Kind.IsSwitch() {
					if _, ok := switchIdx[n]; !ok {
						switchIdx[n] = len(switches)
						switches = append(switches, n)
					}
				}
			}
		}
	}

	// Variable layout: z vars first, then x, then y.
	zBase := make([]int, len(flows))
	nz := 0
	for i := range flows {
		zBase[i] = nz
		nz += len(cand[i])
	}
	xBase := nz
	yBase := xBase + len(links)
	total := yBase + len(switches)

	prob := lp.NewProblem(total)
	// Objective: link and switch power. A tiny epsilon on links breaks
	// ties toward fewer active links even when configured link power is 0.
	for li, lid := range links {
		prob.SetObj(xBase+li, g.Link(lid).PowerW+1e-3)
	}
	for si, n := range switches {
		prob.SetObj(yBase+si, g.Node(n).PowerW)
	}

	// Each flow picks exactly one path.
	for i := range flows {
		coeffs := map[int]float64{}
		for p := range cand[i] {
			coeffs[zBase[i]+p] = 1
		}
		prob.AddConstraint(coeffs, lp.EQ, 1)
	}

	// Per-direction link capacity with activation coupling, row-scaled so
	// every coefficient is O(1) (raw bits-per-second coefficients span
	// nine orders of magnitude against the ±1 coupling rows and destroy
	// simplex numerics):
	//   Σ (eff_i/usableCap)·z_{i,p} − x_l <= 0 for each used direction.
	usable := func(lid topology.LinkID) float64 {
		return g.Link(lid).CapacityBps - cfg.SafetyMarginBps
	}
	dirUsers := map[int]map[int]float64{}
	for i, f := range flows {
		eff := cfg.effective(f)
		for p, path := range cand[i] {
			for _, d := range path.DirLinks(g) {
				if dirUsers[d] == nil {
					dirUsers[d] = map[int]float64{}
				}
				dirUsers[d][zBase[i]+p] += eff / usable(topology.LinkID(d/2))
			}
		}
	}
	for d, users := range dirUsers {
		lid := topology.LinkID(d / 2)
		coeffs := map[int]float64{}
		for v, c := range users {
			coeffs[v] = c
		}
		coeffs[xBase+linkIdx[lid]] = -1
		prob.AddConstraint(coeffs, lp.LE, 0)
	}

	// Active link implies both endpoint switches active (eq. 7).
	for li, lid := range links {
		l := g.Link(lid)
		for _, end := range []topology.NodeID{l.A, l.B} {
			if si, ok := switchIdx[end]; ok {
				prob.AddConstraint(map[int]float64{xBase + li: 1, yBase + si: -1}, lp.LE, 0)
			}
		}
	}

	// A switch with no active links sleeps (eq. 8): y_s <= Σ x_l over
	// incident modeled links.
	for si, n := range switches {
		coeffs := map[int]float64{yBase + si: 1}
		for _, lid := range g.LinksAt(n) {
			if li, ok := linkIdx[lid]; ok {
				coeffs[xBase+li] = -1
			}
		}
		prob.AddConstraint(coeffs, lp.LE, 0)
	}

	binaries := make([]int, total)
	for j := range binaries {
		binaries[j] = j
	}
	layout := &exactLayout{
		cand:     cand,
		zBase:    zBase,
		links:    links,
		switches: switches,
		xBase:    xBase,
		yBase:    yBase,
	}
	return prob, binaries, layout, nil
}

// Verify checks a result against the model invariants: every placed path
// is active and valid, reserved bandwidth respects capacities, and flow
// conservation holds trivially by path construction. It returns the first
// violation found.
func Verify(g *topology.Graph, flows []flow.Flow, cfg Config, res *Result) error {
	byID := map[flow.ID]flow.Flow{}
	for _, f := range flows {
		byID[f.ID] = f
	}
	reserved := map[int]float64{}
	for id, p := range res.Paths {
		f, ok := byID[id]
		if !ok {
			return fmt.Errorf("consolidate: path for unknown flow %d", id)
		}
		if !p.Valid(g) {
			return fmt.Errorf("consolidate: invalid path for flow %d", id)
		}
		if p[0] != f.Src || p[len(p)-1] != f.Dst {
			return fmt.Errorf("consolidate: path endpoints wrong for flow %d", id)
		}
		if !res.Active.PathOn(p) {
			return fmt.Errorf("consolidate: path for flow %d crosses inactive elements", id)
		}
		for _, d := range p.DirLinks(g) {
			reserved[d] += cfg.effective(f)
		}
	}
	for d, r := range reserved {
		lid := topology.LinkID(d / 2)
		if r > g.Link(lid).CapacityBps-cfg.SafetyMarginBps+1e-6 {
			return fmt.Errorf("consolidate: link %d (dir %d) overcommitted: %.0f reserved", lid, d%2, r)
		}
	}
	return nil
}
