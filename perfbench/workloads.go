package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"

	"eprons/internal/cluster"
	"eprons/internal/core"
	"eprons/internal/experiments"
	"eprons/internal/rng"
	wl "eprons/internal/workload"
)

// workload is one set of experiment calls the benchmark times.
type workload interface {
	// setup builds the inputs of the timed phase from the seed.
	setup(seed int64) error
	// setupTraced is setup for the traced run; where set-up is program
	// work, it is recomputed from layer calls and checked bit for bit.
	setupTraced(seed int64, tr *tracer) error
	// run is the timed phase: the experiment entry points, called as the
	// CLIs call them.
	run() (*outcome, error)
	// runTraced recomputes run's result with a span around each layer
	// call; its outputs must equal run's bit for bit.
	runTraced(tr *tracer) (*outcome, error)
}

// seedFree marks a workload whose inputs do not depend on the seed, so its
// pinned outputs hold at every seed.
type seedFree interface{ seedFree() }

// outcome is a timed phase's result, reduced to what the benchmark checks
// and counts.
type outcome struct {
	// outputs are every deterministic number of the result, in a fixed
	// order; pins.go holds them at %.17g for the default seed.
	outputs []output
	// violations lists broken identities among the result's public fields.
	violations []string
	// counts are per-layer work and failure counts read from the result
	// (and, for the traced rebuild, the route resolver's total time).
	counts map[string]float64
}

type output struct {
	name  string
	value float64
}

// The fig10 cells are one Fig 10 operating point at both ends of the
// aggregation range: every switch on (level 0) and the minimal subnet
// (level 3), 20% background, fluid background, ECMP query routes.
var (
	fig10Levels = []int{0, 3}
	fig10Bg     = []float64{0.20}
)

var workloads = map[string]workload{
	// Route construction is most of this cell: ~1M eager pair routes are
	// built, hashed and interned before a 0.2 s packet simulation.
	"fig10-k16-eager": &fig10{k: 16, durationS: 0.2, queries: 8},
	// The same cell on 8192 hosts, where routes resolve on demand and
	// fluid reevaluation as ~1000 elephants start and stop dominates.
	"fig10-k32-lazy": &fig10{k: 32, durationS: 0.05, queries: 1},
	// Table training (set-up) and the 24-hour planner replay: server and
	// DVFS simulation plus consolidation, no packet network at all.
	"diurnal-fig15": &diurnal{},
	// k=4 replica and flash-crowd cells: the cluster query lifecycle,
	// timers, faults and admission control on a small engine heap.
	"robustness-mix": &robustness{},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// verify checks an outcome: its identities always, and its outputs
// against pins.go at the default seed (at every seed for a seed-free
// workload). Any difference makes the operation a failed one.
func verify(name string, seed int64, o *outcome) error {
	if len(o.violations) > 0 {
		return fmt.Errorf("invariants violated: %s", strings.Join(o.violations, "; "))
	}
	if _, free := workloads[name].(seedFree); seed != 0 && !free {
		return nil
	}
	want := pins[name]
	if len(want) != len(o.outputs) {
		return fmt.Errorf("%d outputs, %d pinned", len(o.outputs), len(want))
	}
	for _, v := range o.outputs {
		got := fmt.Sprintf("%.17g", v.value)
		if pin, ok := want[v.name]; !ok || got != pin {
			return fmt.Errorf("output %s = %s, pinned %q", v.name, got, pin)
		}
	}
	return nil
}

// sameOutputs reports the first output that differs bit for bit.
func sameOutputs(a, b *outcome) error {
	if len(a.outputs) != len(b.outputs) {
		return fmt.Errorf("%d outputs vs %d", len(a.outputs), len(b.outputs))
	}
	for i, x := range a.outputs {
		y := b.outputs[i]
		if x.name != y.name || math.Float64bits(x.value) != math.Float64bits(y.value) {
			return fmt.Errorf("output %s = %.17g, traced %s = %.17g", x.name, x.value, y.name, y.value)
		}
	}
	return nil
}

// numericFields appends every int and float field of a struct value as an
// output named prefix.Field.
func numericFields(out []output, prefix string, v any) []output {
	rv := reflect.ValueOf(v)
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rv.Field(i)
		name := prefix + "." + rt.Field(i).Name
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			out = append(out, output{name, float64(f.Int())})
		case reflect.Float64:
			out = append(out, output{name, f.Float()})
		}
	}
	return out
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// fig10 is one Fig 10 cell pair on a k-ary fat-tree.
type fig10 struct {
	k         int
	durationS float64
	// queries is the number of queries each cell's traffic window holds
	// (see querySeed).
	queries int
	cfg     experiments.NetLatencyConfig
}

// buildServiceDist builds the query service-time distribution that every
// cluster cell's servers draw from. The entry points take only a config
// and rebuild it inside the timed phase; set-up builds it too, so the
// program's input generation has a time of its own.
func buildServiceDist() error {
	_, err := wl.ServiceDist(wl.DefaultServiceConfig())
	return err
}

func (w *fig10) setup(seed int64) error {
	w.cfg = experiments.NetLatencyConfig{
		DurationS: w.durationS, K: w.k, Fluid: true, ECMPQueries: true,
		Shards: 1, Workers: 1, Seed: querySeed(seed, fig10QueryRate, w.durationS, w.queries),
	}
	return buildServiceDist()
}

// fig10QueryRate is the query rate NetLatencyConfig defaults to.
const fig10QueryRate = 40

// querySeed returns the experiment seed for workload seed n: the first of
// n·1000+1, n·1000+2, … whose query arrival stream puts exactly want
// queries into the traffic window. The count is Poisson, and one query
// fans out to every host (1023 at k=16, 8191 at k=32), each sub-query
// resolving a route, so a seed-drawn count would make the cell's work vary
// with the seed: at k=32 (mean 2) from no query, which leaves no latency
// to report, to four or more. The stream is the one cluster.StartPoisson
// draws from, at the harness's Seed+11; the traced run checks the count.
func querySeed(n int64, rate, window float64, want int) int64 {
	for s := n*1000 + 1; ; s++ {
		arrivals := rng.Derive(s+11, "query-arrivals")
		count := 0
		for t := arrivals.Exp(1 / rate); t <= window; t += arrivals.Exp(1 / rate) {
			count++
		}
		if count == want {
			return s
		}
	}
}

func (w *fig10) setupTraced(seed int64, tr *tracer) error { return w.setup(seed) }

func (w *fig10) run() (*outcome, error) {
	rows, err := experiments.Fig10AggregationLatency(fig10Levels, fig10Bg, w.cfg)
	if err != nil {
		return nil, err
	}
	return fig10Outcome(rows), nil
}

func fig10Outcome(rows []experiments.Fig10Row) *outcome {
	o := &outcome{}
	if len(rows) != len(fig10Levels) {
		o.violations = append(o.violations, fmt.Sprintf("%d rows, want %d", len(rows), len(fig10Levels)))
	}
	for i, r := range rows {
		p := fmt.Sprintf("agg%d", r.Level)
		o.outputs = append(o.outputs, output{p + ".mean_s", r.MeanS}, output{p + ".p95_s", r.P95S}, output{p + ".p99_s", r.P99S})
		if i < len(fig10Levels) && r.Level != fig10Levels[i] {
			o.violations = append(o.violations, fmt.Sprintf("row %d is level %d", i, r.Level))
		}
		if !finite(r.MeanS) || !(r.MeanS > 0) || !(r.P95S > 0) || !(r.P95S <= r.P99S) || !finite(r.P99S) {
			o.violations = append(o.violations, fmt.Sprintf("%s latencies mean %g p95 %g p99 %g", p, r.MeanS, r.P95S, r.P99S))
		}
	}
	return o
}

// diurnal trains the three quick-grid server power tables (set-up) and
// replays the 24-hour Fig 15 day at the paper's 60 s step and at a 10 s
// step (the timed phase; one replay alone is under a second).
type diurnal struct {
	eprons, tt, mf *core.ServerPowerTable
}

var diurnalSteps = []float64{60, 10}

func (*diurnal) seedFree() {}

func (w *diurnal) setup(int64) error {
	var err error
	w.eprons, w.tt, w.mf, err = experiments.TrainTablesWorkers(true, 1)
	return err
}

func (w *diurnal) run() (*outcome, error) {
	var sums []*experiments.Fig15Summary
	for _, step := range diurnalSteps {
		s, err := experiments.Fig15DiurnalWorkers(w.eprons, w.tt, w.mf, step, 1)
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	return diurnalOutcome(sums), nil
}

func diurnalOutcome(sums []*experiments.Fig15Summary) *outcome {
	o := &outcome{}
	for i, s := range sums {
		p := fmt.Sprintf("step%g", diurnalSteps[i])
		o.outputs = numericFields(o.outputs, p, *s)
		schemes := []struct {
			label  string
			series *core.DiurnalSeries
		}{{"eprons", &s.Result.EPRONS}, {"timetrader", &s.Result.TimeTrader}, {"nopm", &s.Result.NoPM}}
		for _, sc := range schemes {
			name := p + "." + sc.label
			total, server, net := sc.series.TotalW.V, sc.series.ServerW.V, sc.series.NetW.V
			if len(total) != len(s.Result.Times) || len(server) != len(total) || len(net) != len(total) {
				o.violations = append(o.violations, fmt.Sprintf("%s: series lengths %d/%d/%d over %d steps",
					name, len(total), len(server), len(net), len(s.Result.Times)))
				continue
			}
			sum := 0.0
			for j := range total {
				if total[j] != server[j]+net[j] || !finite(total[j]) {
					o.violations = append(o.violations, fmt.Sprintf("%s step %d: total %g != server %g + network %g",
						name, j, total[j], server[j], net[j]))
					break
				}
				sum += total[j]
			}
			o.outputs = append(o.outputs, output{name + ".sum_total_w", sum})
		}
	}
	return o
}

// robustness is two replica cells (R=3, hedged selection, 2 faults/s with
// edge switches, 100 q/s for 45 s, seeds s and s+1) and one flash-crowd
// cell (3× step surge over 6 s, with and without the overload control
// plane) on the k=4 fabric. A replica cell's work follows its fault
// schedule, so two independently seeded cells halve the seed's share of
// the spread. At 200 q/s the replica cell tips into hedge storms on some
// seeds (up to 5× the sub-query attempts); at 100 q/s goodput stays at
// 98–99% and attempts within ±4%.
type robustness struct {
	replica  experiments.ReplicaConfig
	overload experiments.OverloadConfig
}

// replicaFaultRates runs the replica sweep as two cells at 2 faults/s;
// the sweep seeds cell i with Seed+i.
var replicaFaultRates = []float64{2, 2}

func (w *robustness) setup(seed int64) error {
	w.replica = experiments.ReplicaConfig{DurationS: 45, QueryRate: 100, Seed: seed + 1, Workers: 1}
	w.overload = experiments.OverloadConfig{DurationS: 6, SurgeResponse: true, Seed: seed + 1, Workers: 1}
	return buildServiceDist()
}

func (w *robustness) setupTraced(seed int64, tr *tracer) error { return w.setup(seed) }

func (w *robustness) replicaCells() ([]experiments.ReplicaRow, error) {
	return experiments.ReplicaSweep([]int{3}, []cluster.SelectionPolicy{cluster.SelHedged}, replicaFaultRates, w.replica)
}

func (w *robustness) overloadCell() (experiments.OverloadRow, error) {
	rows, err := experiments.OverloadSweep([]float64{3}, w.overload)
	if err != nil {
		return experiments.OverloadRow{}, err
	}
	return rows[0], nil
}

func (w *robustness) run() (*outcome, error) {
	rs, err := w.replicaCells()
	if err != nil {
		return nil, err
	}
	ov, err := w.overloadCell()
	if err != nil {
		return nil, err
	}
	return robustnessOutcome(rs, ov), nil
}

func (w *robustness) runTraced(tr *tracer) (*outcome, error) {
	s := tr.begin("cells.replica")
	rs, err := w.replicaCells()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("cells.overload")
	ov, err := w.overloadCell()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	return robustnessOutcome(rs, ov), nil
}

func robustnessOutcome(rs []experiments.ReplicaRow, ov experiments.OverloadRow) *outcome {
	o := &outcome{counts: map[string]float64{}}
	if len(rs) != len(replicaFaultRates) {
		o.violations = append(o.violations, fmt.Sprintf("%d replica rows, want %d", len(rs), len(replicaFaultRates)))
	}
	submitted := ov.AC.Submitted + ov.NoAC.Submitted
	completed := ov.AC.Completed + ov.NoAC.Completed
	var hedges, hedgeWins int
	for i, r := range rs {
		name := fmt.Sprintf("replica%d", i)
		o.outputs = numericFields(o.outputs, name, r)
		o.violations = append(o.violations, replicaViolations(name, r)...)
		submitted += r.Submitted
		completed += r.Completed
		hedges += r.Hedges
		hedgeWins += r.HedgeWins
		for k, v := range map[string]int{
			"cluster.subqueries":          r.SubAttempts,
			"cluster.dropped_sub":         r.DroppedSub,
			"cluster.sub_attempts":        r.SubAttempts,
			"cluster.failovers":           r.Failovers,
			"cluster.retries":             r.Retries,
			"cluster.timeouts":            r.Timeouts,
			"cluster.hedges":              r.Hedges,
			"controller.repaired":         r.Repaired,
			"controller.stranded_rejects": r.StrandedRejects,
			"faults.injected":             r.FaultsInjected,
		} {
			o.counts[k] += float64(v)
		}
	}
	o.outputs = numericFields(o.outputs, "overload", ov)
	o.outputs = numericFields(o.outputs, "overload.ac", ov.AC)
	o.outputs = numericFields(o.outputs, "overload.noac", ov.NoAC)
	o.violations = append(o.violations, cellViolations("overload.ac", ov.AC)...)
	o.violations = append(o.violations, cellViolations("overload.noac", ov.NoAC)...)

	o.counts["cluster.queries"] = float64(submitted)
	o.counts["cluster.goodput"] = float64(completed) / float64(max(submitted, 1))
	o.counts["cluster.hedge_win_frac"] = float64(hedgeWins) / float64(max(hedges, 1))
	o.counts["cluster.shed"] = float64(ov.AC.Shed + ov.NoAC.Shed)
	o.counts["cluster.rejected_sub"] = float64(ov.AC.RejectedSub + ov.NoAC.RejectedSub)
	o.counts["controller.surge_expansions"] = float64(ov.AC.SurgeExpansions + ov.NoAC.SurgeExpansions)
	return o
}

// replicaViolations checks a replica row's identities: every submitted
// query completed or was lost, none is left in flight after the drain, and
// every hedge either won or was wasted.
func replicaViolations(name string, r experiments.ReplicaRow) []string {
	var v []string
	if r.Submitted <= 0 {
		v = append(v, fmt.Sprintf("%s: %d queries submitted", name, r.Submitted))
	}
	if r.Submitted != r.Completed+r.Lost+r.Orphans {
		v = append(v, fmt.Sprintf("%s: submitted %d != completed %d + lost %d + orphans %d", name, r.Submitted, r.Completed, r.Lost, r.Orphans))
	}
	if r.Orphans != 0 {
		v = append(v, fmt.Sprintf("%s: %d orphaned queries", name, r.Orphans))
	}
	if r.Hedges != r.HedgeWins+r.HedgeWasted {
		v = append(v, fmt.Sprintf("%s: hedges %d != wins %d + wasted %d", name, r.Hedges, r.HedgeWins, r.HedgeWasted))
	}
	return v
}

// cellViolations checks a flash-crowd cell's query conservation.
func cellViolations(name string, c experiments.OverloadCell) []string {
	var v []string
	if c.Submitted <= 0 {
		v = append(v, fmt.Sprintf("%s: %d queries submitted", name, c.Submitted))
	}
	if c.Submitted != c.Completed+c.Lost+c.Shed+c.Orphans {
		v = append(v, fmt.Sprintf("%s: submitted %d != completed %d + lost %d + shed %d + orphans %d",
			name, c.Submitted, c.Completed, c.Lost, c.Shed, c.Orphans))
	}
	if c.Orphans != 0 {
		v = append(v, fmt.Sprintf("%s: %d orphaned queries", name, c.Orphans))
	}
	return v
}
