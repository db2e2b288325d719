// Command netsweep regenerates the network-side evaluation: Fig 10
// (query network latency vs aggregation policy × background traffic) and
// Fig 11 (scale factor K vs tail latency and active switches).
//
// Usage:
//
//	netsweep [-fig 10|11|all] [-duration 3] [-rate 40] [-workers N] [-k 4] [-fluid]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"eprons/internal/experiments"
	"eprons/internal/parallel"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 10, 11 or all")
	duration := flag.Float64("duration", 3, "simulated seconds per configuration")
	rate := flag.Float64("rate", 40, "query rate (queries/s)")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "sweep concurrency (grid cells are independent simulations; <=1 runs sequentially, results are identical either way)")
	csvOut := flag.Bool("csv", false, "emit tables as CSV")
	kArity := flag.Int("k", 4, "fat-tree arity (8 for the large-fabric sweep; background flows grow as k^2)")
	fluid := flag.Bool("fluid", false, "hybrid fluid/packet background engine: fold uncongested background elephants into analytic link reservations (order-of-magnitude fewer events; off = bit-identical packet-level simulation)")
	flag.Parse()
	if *fig != "10" && *fig != "11" && *fig != "all" {
		fmt.Fprintf(os.Stderr, "netsweep: unknown -fig %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.NetLatencyConfig{DurationS: *duration, QueryRate: *rate, Seed: *seed, Workers: *workers, K: *kArity, Fluid: *fluid}

	if *fig == "10" || *fig == "all" {
		rows, err := experiments.Fig10AggregationLatency(
			[]int{0, 1, 2, 3},
			[]float64{0.05, 0.10, 0.20, 0.30},
			cfg)
		if err != nil {
			log.Fatal(err)
		}
		t := &experiments.Table{
			Title:   "Fig 10 — query network latency vs aggregation policy and background traffic",
			Headers: []string{"aggregation", "background", "mean(µs)", "p95(µs)", "p99(µs)"},
		}
		for _, r := range rows {
			t.AddRow(strconv.Itoa(r.Level), experiments.Pct(r.BgUtil),
				experiments.Us(r.MeanS), experiments.Us(r.P95S), experiments.Us(r.P99S))
		}
		fmt.Print(experiments.Render(t, *csvOut))
		fmt.Println()
	}

	if *fig == "11" || *fig == "all" {
		rows, err := experiments.Fig11ScaleFactor(
			[]int{1, 2, 3, 4, 5, 6},
			[]float64{0.05, 0.10, 0.20, 0.30},
			cfg)
		if err != nil {
			log.Fatal(err)
		}
		t := &experiments.Table{
			Title:   "Fig 11 — scale factor K vs network tail latency and active switches",
			Headers: []string{"background", "K", "p95(µs)", "active switches", "feasible"},
		}
		for _, r := range rows {
			t.AddRow(experiments.Pct(r.BgUtil), strconv.Itoa(r.K),
				experiments.Us(r.P95S), strconv.Itoa(r.ActiveSwitches),
				strconv.FormatBool(r.Feasible))
		}
		fmt.Print(experiments.Render(t, *csvOut))
	}
}
