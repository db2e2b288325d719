// Command figdump prints the headline figure series (Fig 10, 11, 13 and
// the Fig 15 diurnal summary) at full float64 precision (%.17g), one line
// per data point, to the file given as its argument (or stdout with "-").
//
// Its purpose is the simulator's bit-identity contract: any change to the
// event scheduler, the packet pipeline, routing or the planner must leave
// every figure untouched. TestDumpGolden enforces it on every test run by
// comparing the dump, with the fluid engine off and on, to the committed
// testdata/plain.txt and testdata/fluid.txt; a change that moves a figure
// on purpose regenerates them and says why:
//
//	go test ./cmd/figdump -update
//
// The sweep shapes are deliberately small (the benchmark configurations,
// a few seconds of CPU) — this is a regression tripwire, not a paper
// reproduction; use `reproduce -fig 10,11,13,15` for the full figures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eprons/internal/experiments"
)

func dump(w io.Writer, fluid bool) error {
	cfg := experiments.NetLatencyConfig{DurationS: 1.5, Fluid: fluid}
	rows10, err := experiments.Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
	if err != nil {
		return err
	}
	for _, r := range rows10 {
		fmt.Fprintf(w, "fig10 %d %.17g %.17g %.17g %.17g %d\n", r.Level, r.BgUtil, r.MeanS, r.P95S, r.P99S, r.Dropped)
	}
	rows11, err := experiments.Fig11ScaleFactor([]int{1, 4}, []float64{0.30}, cfg)
	if err != nil {
		return err
	}
	for _, r := range rows11 {
		fmt.Fprintf(w, "fig11 %d %.17g %.17g %d %v\n", r.K, r.BgUtil, r.P95S, r.ActiveSwitches, r.Feasible)
	}
	eprons, tt, mf, err := experiments.TrainTables(true)
	if err != nil {
		return err
	}
	rows13, err := experiments.Fig13JointPower(eprons, []float64{0.20}, []float64{19e-3, 31e-3, 40e-3})
	if err != nil {
		return err
	}
	for _, r := range rows13 {
		fmt.Fprintf(w, "fig13 %d %.17g %.17g %v\n", r.Level, r.ConstraintS, r.TotalW, r.Feasible)
	}
	sum, err := experiments.Fig15Diurnal(eprons, tt, mf, 60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fig15 %.17g %.17g %.17g\n", sum.EPRONSAvgSaving, sum.EPRONSPeakSaving, sum.TTAvgSaving)
	return nil
}

func main() {
	fluid := flag.Bool("fluid", false, "hybrid fluid/packet background engine for the packet simulations")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: figdump [-fluid] <out-file|->")
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if flag.Arg(0) != "-" {
		f, err := os.Create(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "figdump:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := dump(w, *fluid); err != nil {
		fmt.Fprintln(os.Stderr, "figdump:", err)
		os.Exit(1)
	}
}
