package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call into a layer. Parent indexes the enclosing span
// (-1 for a root: the traced set-up or one traced iteration).
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
}

// tracer records spans in memory; the traced run writes them out at exit.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, StartNs: time.Since(t.epoch).Nanoseconds(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.spans[id].EndNs = time.Since(t.epoch).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// rootSums returns, for each root span, the total seconds spent in each
// span name beneath it.
func (t *tracer) rootSums() []map[string]float64 {
	var sums []map[string]float64
	root := make([]int, len(t.spans)) // index into sums
	for i, s := range t.spans {
		if s.Parent < 0 {
			root[i] = len(sums)
			sums = append(sums, map[string]float64{})
			continue
		}
		root[i] = root[s.Parent]
		sums[root[i]][s.Name] += float64(s.EndNs-s.StartNs) / 1e9
	}
	return sums
}

// perLayer lists the traced run's metrics in BENCHMARK.json order. Every
// workload reports all of them; a layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"fattree.build_s", "s"},
	{"route.install_s", "s"},
	{"route.pairs", "count"},
	{"topology.segments", "count"},
	{"topology.hops", "count"},
	{"route.intern_ratio", "ratio"},
	{"route.resolve_s", "s"},
	{"route.resolved", "count"},
	{"netsim.bg_start_s", "s"},
	{"netsim.bg_stop_s", "s"},
	{"consolidate.place_s", "s"},
	{"sim.run_s", "s"},
	{"sim.drain_s", "s"},
	{"core.train_s", "s"},
	{"core.planner_s", "s"},
	{"core.replay_s", "s"},
	{"cells.replica_s", "s"},
	{"cells.overload_s", "s"},
	{"cluster.queries", "count"},
	{"cluster.subqueries", "count"},
	{"cluster.dropped_sub", "count"},
	{"cluster.goodput", "ratio"},
	{"cluster.sub_attempts", "count"},
	{"cluster.failovers", "count"},
	{"cluster.retries", "count"},
	{"cluster.timeouts", "count"},
	{"cluster.hedges", "count"},
	{"cluster.hedge_win_frac", "ratio"},
	{"cluster.shed", "count"},
	{"cluster.rejected_sub", "count"},
	{"controller.surge_expansions", "count"},
	{"controller.repaired", "count"},
	{"controller.stranded_rejects", "count"},
	{"faults.injected", "count"},
	{"runtime.cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"prof.sim.self_pct", "%"},
	{"prof.netsim.self_pct", "%"},
	{"prof.topology.self_pct", "%"},
	{"prof.fattree.self_pct", "%"},
	{"prof.consolidate.self_pct", "%"},
	{"prof.cluster.self_pct", "%"},
	{"prof.server.self_pct", "%"},
	{"prof.dvfs.self_pct", "%"},
	{"prof.core.self_pct", "%"},
	{"prof.metrics.self_pct", "%"},
	{"prof.experiments.self_pct", "%"},
	{"prof.gc.self_pct", "%"},
	{"bench.host_ref_ms", "ms"},
	{"trace.overhead_s", "s"},
}

// profileSeconds is the least CPU time the traced run profiles.
const profileSeconds = 3

// traced is the traced run. It alternates untraced and traced repetitions
// of the timed phase until the measurement time is used, requiring equal
// outputs from each pair, then profiles untraced repetitions for at least
// profileSeconds. Span times are medians over the traced repetitions (the
// table training spans belong to the one traced set-up).
func traced(name string, w workload, seed int64, seconds float64, outDir string) (report, error) {
	hostRef := hostReferenceMs()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return report{}, err
	}
	tr := newTracer()
	root := tr.begin("setup")
	err := w.setupTraced(seed, tr)
	tr.end(root)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}

	rep := report{}
	fail := func(what string, err error) {
		rep.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s repetition failed: %v\n", what, err)
	}
	var plainWalls, tracedWalls, cpu, gcs []float64
	var last *outcome
	start := time.Now()
	for rep.Attempted == 0 || time.Since(start).Seconds() < seconds {
		plain := measure(name, w, seed)
		plainWalls = append(plainWalls, plain.wall)
		cpu = append(cpu, plain.cpu)
		gcs = append(gcs, plain.gcCycles)
		rep.Attempted++
		if plain.err != nil {
			fail("untraced", plain.err)
		}

		runtime.GC()
		root := tr.begin("iteration")
		t1 := time.Now()
		o, err := w.runTraced(tr)
		tracedWalls = append(tracedWalls, time.Since(t1).Seconds())
		tr.end(root)
		rep.Attempted++
		if err == nil {
			err = verify(name, seed, o)
		}
		if err == nil && plain.err == nil {
			err = sameOutputs(plain.out, o)
		}
		if err != nil {
			fail("traced", err)
			continue
		}
		last = o
	}

	profPath := filepath.Join(outDir, "cpu-"+name+".pprof")
	// Profiled repetitions run back to back, without the forced
	// collection measure makes, so the profile's GC share is the program's.
	if err := profileRuns(profPath, func() {
		o, err := w.run()
		rep.Attempted++
		if err == nil {
			err = verify(name, seed, o)
		}
		if err != nil {
			fail("profiled", err)
		}
	}); err != nil {
		return report{}, err
	}
	shares, err := profileShares(profPath)
	if err != nil {
		return report{}, err
	}
	spansPath := filepath.Join(outDir, "spans-"+name+".json")
	if err := writeSpans(spansPath, tr.spans); err != nil {
		return report{}, err
	}

	counts := map[string]float64{}
	if last != nil {
		counts = last.counts
	}
	special := map[string]float64{
		"runtime.cpu_s":     median(cpu),
		"runtime.gc_cycles": median(gcs),
		"bench.host_ref_ms": hostRef,
		"trace.overhead_s":  median(tracedWalls) - median(plainWalls),
	}
	sums := tr.rootSums()
	rep.Metrics = map[string]metric{}
	for _, pl := range perLayer {
		v, ok := special[pl.name]
		if !ok {
			v, ok = counts[pl.name]
		}
		switch {
		case ok:
		case strings.HasPrefix(pl.name, "prof."):
			v = shares[strings.TrimSuffix(strings.TrimPrefix(pl.name, "prof."), ".self_pct")]
		case pl.unit == "s":
			v = spanMedian(sums, strings.TrimSuffix(pl.name, "_s"))
		}
		rep.Metrics[pl.name] = metric{v, pl.unit}
	}
	rep.Correct = rep.Failed == 0
	fmt.Printf("traced run: %d untraced / %d traced repetitions, spans in %s, profile in %s\n",
		len(plainWalls), len(tracedWalls), spansPath, profPath)
	return rep, nil
}

// spanMedian is the median, over the root spans that contain the named
// span, of the seconds spent in it under that root.
func spanMedian(sums []map[string]float64, name string) float64 {
	var xs []float64
	for _, s := range sums {
		if v, ok := s[name]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// profileRuns calls run under the CPU profiler until at least one call and
// profileSeconds of wall time have passed.
func profileRuns(path string, run func()) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < profileSeconds*time.Second; n++ {
		run()
	}
	pprof.StopCPUProfile()
	return f.Close()
}

// gcFrames mark a sample as garbage-collector work: the background mark
// and sweep workers, and the assists and sweeps allocation pays for.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.deductSweepCredit": true,
	"runtime.gcStart":           true,
	"runtime.gcMarkTermination": true,
}

// profileShares reduces a CPU profile, via `go tool pprof -traces`, to the
// percentage of samples per repository package. A sample belongs to GC
// ("gc") if any frame is collector work, else to the package of its
// innermost eprons/internal frame: a package's share is its own code plus
// the runtime helpers (allocation, maps, copies) it calls directly.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	byPkg := map[string]float64{}
	total := 0.0
	var weight float64
	var frames []string
	flush := func() {
		if weight == 0 {
			return
		}
		total += weight
		byPkg[samplePackage(frames)] += weight
		weight, frames = 0, frames[:0]
	}
	// Each sample is a weight and its innermost frame on one line
	// ("      10ms   pkg.Func"), then one caller per line; frame names may
	// hold spaces (generic shapes), so lines are split by column.
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		if len(line) < 12 || line[0] != ' ' {
			continue // header lines
		}
		frame := strings.TrimSuffix(strings.TrimSpace(line[11:]), " (inline)")
		if head := strings.TrimSpace(line[:11]); head != "" {
			d, err := time.ParseDuration(head)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces line %q: %w", line, err)
			}
			flush()
			weight = d.Seconds()
		}
		frames = append(frames, frame)
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile %s holds no samples", path)
	}
	for k, v := range byPkg {
		byPkg[k] = 100 * v / total
	}
	return byPkg, nil
}

// samplePackage names the bucket a sample's stack (innermost frame first)
// belongs to.
func samplePackage(frames []string) string {
	for _, f := range frames {
		if gcFrames[f] {
			return "gc"
		}
	}
	const repo = "eprons/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, repo); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	return "other"
}
