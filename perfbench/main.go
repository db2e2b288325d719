// Command perfbench is the repository's benchmark. It runs one workload —
// experiment entry points called exactly as the CLIs call them, one worker,
// sequential engine — over and over for a given number of seconds, checks
// every result, and prints one JSON object of metrics as its last line.
//
//	go run . --workload fig10-k16-eager --seed 0 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the traced run: it
// recomputes the same results from exported layer calls with a span around
// each, requires them to match the end-to-end results bit for bit, and
// reports per-layer metrics plus a CPU profile reduced to per-package
// shares. README.md lists the workloads, metrics and measured spreads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 0, "workload seed, from which each workload derives its experiment seeds (README.md)")
	seconds := flag.Float64("seconds", 10, "seconds of measurement")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced run and reports per-layer metrics")
	outDir := flag.String("out", ".bench_build", "directory for the traced run's spans and CPU profile")
	dump := flag.Bool("dump-outputs", false, "run the timed phase once and print its outputs at %.17g (the form pins.go holds)")
	flag.Parse()

	// One thread runs Go code: the experiments are sequential, and a
	// second processor would let garbage collection run beside them on a
	// core other tenants of the host also use.
	runtime.GOMAXPROCS(1)

	w, ok := workloads[*name]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fatalf("--seconds must be positive")
	}
	if *seed < 0 || *seed > math.MaxInt64/1000-1 {
		fatalf("--seed must be in [0, %d]", math.MaxInt64/1000-1)
	}
	var (
		rep report
		err error
	)
	switch {
	case *dump:
		err = dumpOutputs(w, *seed)
		if err == nil {
			return
		}
	case *trace == 0:
		rep, err = endToEnd(*name, w, *seed, *seconds)
	case *trace == 1:
		rep, err = traced(*name, w, *seed, *seconds, *outDir)
	default:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatalf("encode report: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// endToEnd is the untraced run. Each round sets up (repeated for at least
// setupRound, so short set-ups give many samples) and then runs the timed
// phase once, each from a freshly collected heap; rounds repeat until the
// measurement time is used. Every metric is the median over the rounds'
// samples, except peak_rss_mb, which is the process's.
func endToEnd(name string, w workload, seed int64, seconds float64) (report, error) {
	hostRef := hostReferenceMs()
	var setups, walls, allocMB, allocsK []float64
	rep := report{}
	start := time.Now()
	for rep.Attempted == 0 || time.Since(start).Seconds() < seconds {
		runtime.GC() // the previous round's garbage is not set-up's to collect
		s0 := time.Now()
		for len(setups) == 0 || time.Since(s0) < setupRound {
			t := time.Now()
			if err := w.setup(seed); err != nil {
				return report{}, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
		}
		s := measure(name, w, seed)
		walls = append(walls, s.wall)
		allocMB = append(allocMB, s.allocMB)
		allocsK = append(allocsK, s.allocsK)
		rep.Attempted++
		if s.err != nil {
			rep.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: repetition %d failed: %v\n", rep.Attempted, s.err)
		}
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = map[string]metric{
		"wall_s":      {median(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
		"alloc_mb":    {median(allocMB), "MB"},
		"allocs_k":    {median(allocsK), "k"},
	}
	// The host reference is a diagnostic, never gated, so it stays out of
	// the JSON object, whose metrics are exactly the gated ones.
	fmt.Printf("%d rounds, %d set-ups, bench.host_ref_ms %.4f\n", len(walls), len(setups), hostRef)
	return rep, nil
}

// setupRound is the least time each round spends setting up.
const setupRound = 50 * time.Millisecond

// sample is one repetition of the timed phase.
type sample struct {
	wall, cpu, allocMB, allocsK, gcCycles float64
	out                                   *outcome
	// err is the run's error or the reason its result failed verify.
	err error
}

// measure runs the timed phase once, from a freshly collected heap, and
// verifies its result.
func measure(name string, w workload, seed int64) sample {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuSeconds(), time.Now()
	o, err := w.run()
	s := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, out: o}
	runtime.ReadMemStats(&m1)
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	s.allocsK = float64(m1.Mallocs-m0.Mallocs) / 1e3
	s.gcCycles = float64(m1.NumGC - m0.NumGC)
	if err == nil {
		err = verify(name, seed, o)
	}
	s.err = err
	return s
}

func dumpOutputs(w workload, seed int64) error {
	if err := w.setup(seed); err != nil {
		return err
	}
	o, err := w.run()
	if err != nil {
		return err
	}
	for _, v := range o.outputs {
		fmt.Printf("%q: %q,\n", v.name, fmt.Sprintf("%.17g", v.value))
	}
	if len(o.violations) > 0 {
		return fmt.Errorf("invariants violated: %s", strings.Join(o.violations, "; "))
	}
	return nil
}

// hostReferenceMs times a fixed loop of integer mixing over an 8 MiB
// buffer, which uses no repository code: it tracks how fast the host runs
// this process right now, so a drifting host shows in every run.
func hostReferenceMs() float64 {
	buf := make([]uint64, 1<<20)
	var samples []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 8<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&(1<<20-1)] += x
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	sink = buf[0]
	return median(samples)
}

// sink keeps the host reference loop's result observable.
var sink uint64

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
