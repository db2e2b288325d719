// Command joint regenerates Fig 13: total system power vs request
// tail-latency constraint for each aggregation policy, at low/medium/high
// background traffic and 30% server utilization. It first trains the
// server power table (the §IV-A parameterization), then evaluates the
// joint model — like the paper, the system-level results are scaled
// through models trained from simulation.
//
// Usage:
//
//	joint [-quick] [-bg 0.01,0.20,0.50]
//	joint -twin [-twink 74] [-bg 0.01,0.20,0.50]
//	joint -twincheck [-quick]
//	joint -faults [-faultrates 0,0.5,1,2] [-faultdur 5] [-faultseed 1]
//	joint -overload [-overloadmults 0.5,1,2,3] [-overloaddur 2] [-surge step] [-overloadwm 0]
//	joint -replicas 1,3 [-selection primary,p2c,hedged] [-hedge 0] [-faultrates 0,1,2]
//
// The -faults mode skips the Fig 13 evaluation and instead runs the
// fault-injection availability sweep: seeded switch crashes and link
// flaps against the consolidated fabric, with controller route repair and
// aggregator sub-query retry.
//
// The -overload mode runs the flash-crowd overload sweep: admission
// control + load shedding + controller surge response versus the
// unprotected baseline across offered-load multipliers; -overloadwm
// overrides the admission high watermark.
//
// The -replicas mode runs the replicated search-tier sweep: consistent-
// hash placement with pod spreading, replica failover, and the selection
// policies of -selection (primary, p2c, hedged) compared across
// replication factors and fault rates; -hedge overrides the hedged
// duplicate delay (0 tracks the observed sub-query p95). All three modes
// run the runtime invariant audit on every drained cell.
//
// The -twin mode answers closed-form what-if capacity queries on an
// arbitrary fat-tree arity (default k=74, a 101,306-host fabric) with no
// simulation at all; -twincheck validates the closed forms against the
// DES on the Fig 10 grid and the trained server table, failing when an
// in-domain cell breaks the pinned error bands.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"eprons/internal/cluster"
	"eprons/internal/experiments"
	"eprons/internal/parallel"
	"eprons/internal/workload"
)

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseSelections(s string) ([]cluster.SelectionPolicy, error) {
	var out []cluster.SelectionPolicy
	for _, part := range strings.Split(s, ",") {
		sel, err := cluster.ParseSelection(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, sel)
	}
	return out, nil
}

func main() {
	quick := flag.Bool("quick", false, "small training grid (faster, coarser)")
	bgArg := flag.String("bg", "0.01,0.20,0.50", "background utilizations (fractions)")
	netScale := flag.Float64("netscale", 25, "network-latency calibration: 25 matches the paper's MiniNet magnitudes, 1 = clean simulator")
	faultsMode := flag.Bool("faults", false, "run the fault-injection availability experiment and exit")
	faultRates := flag.String("faultrates", "0,0.5,1,2", "fault rates to sweep (total fail events/s, split between switch crashes and link flaps)")
	faultDur := flag.Float64("faultdur", 5, "seconds of traffic and fault injection per rate")
	faultSeed := flag.Int64("faultseed", 1, "seed for the fault schedule and workload streams")
	overloadMode := flag.Bool("overload", false, "run the flash-crowd overload experiment and exit")
	overloadMults := flag.String("overloadmults", "0.5,1,2,3", "offered-load multipliers to sweep (x base rate; >1 arrives as a flash crowd)")
	overloadDur := flag.Float64("overloaddur", 2, "seconds of query traffic per multiplier cell")
	overloadRate := flag.Float64("overloadrate", 200, "base (1x) query rate in queries/s")
	overloadSeed := flag.Int64("overloadseed", 1, "seed for the overload workload streams")
	overloadWM := flag.Int("overloadwm", 0, "admission high watermark override (0 derives the SLA-aware default)")
	surgeShape := flag.String("surge", "step", "flash-crowd profile: step, spike or ramp")
	surgeResponse := flag.Bool("surgeresponse", true, "let the controller re-expand the fabric on sustained saturation")
	replicasArg := flag.String("replicas", "", "run the replicated search-tier sweep over these replication factors (e.g. 1,3) and exit; uses -faultrates/-faultdur/-faultseed for the fault axis")
	selectionArg := flag.String("selection", "primary", "replica selection policies to sweep: primary, p2c and/or hedged (comma separated)")
	hedgeDelay := flag.Float64("hedge", 0, "hedged-policy duplicate delay in seconds (0 = track the observed sub-query p95)")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "training/evaluation concurrency (cells are independently seeded simulations; <=1 runs sequentially, results are identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	twinMode := flag.Bool("twin", false, "answer closed-form what-if capacity queries on a -twink fabric and exit (no simulation, no topology graph)")
	twinK := flag.Int("twink", 74, "fat-tree arity for -twin (74 = 101,306 hosts)")
	twinCheck := flag.Bool("twincheck", false, "validate the closed-form twin against the DES on the Fig 10 grid and the trained server table, then exit (non-zero when an in-domain cell breaks the pinned error bands)")
	csvOut := flag.Bool("csv", false, "emit tables as CSV")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	if *twinMode {
		bgs, err := parseFloats(*bgArg)
		if err != nil {
			log.Fatal(err)
		}
		t, _, err := experiments.TwinCapacityTable(*twinK, bgs, 0.30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(t, *csvOut))
		fmt.Println("\nerror bands (validated against the DES on the k=4 Fig 10 grid, see `joint -twincheck`):")
		fmt.Println("  network p95: twin within 0.6x relative error in-domain (consistently optimistic);")
		fmt.Println("  server power: within 0.45x relative error (consistently conservative).")
		fmt.Println("rows marked CLAMPED are outside the validated domain — the bands do not apply there.")
		return
	}

	if *twinCheck {
		sum, err := experiments.TwinCheck(experiments.TwinCheckConfig{
			Quick:   *quick,
			Workers: *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(experiments.TwinCheckTable(sum), *csvOut))
		fmt.Printf("\nin-domain cells %d (net max rel err %.1f%%, server max rel err %.1f%%); out-of-domain cells flagged: %d; feasibility disagreements: %d\n",
			sum.InDomain, sum.NetMaxRel*100, sum.ServerMaxRel*100, sum.Clamped, sum.Disagree)
		if sum.NetMaxRel > experiments.TwinNetRelBand || sum.ServerMaxRel > experiments.TwinServerRelBand {
			log.Fatal("twincheck: in-domain error bands violated")
		}
		return
	}

	if *replicasArg != "" {
		replicas, err := parseInts(*replicasArg)
		if err != nil {
			log.Fatal(err)
		}
		selections, err := parseSelections(*selectionArg)
		if err != nil {
			log.Fatal(err)
		}
		rates, err := parseFloats(*faultRates)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := experiments.ReplicaSweep(replicas, selections, rates, experiments.ReplicaConfig{
			DurationS:   *faultDur,
			HedgeDelayS: *hedgeDelay,
			Seed:        *faultSeed,
			Workers:     *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(experiments.ReplicaTable(rows), *csvOut))
		return
	}

	if *faultsMode {
		rates, err := parseFloats(*faultRates)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := experiments.AvailabilitySweep(rates, experiments.AvailabilityConfig{
			DurationS: *faultDur,
			Seed:      *faultSeed,
			Workers:   *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(experiments.AvailabilityTable(rows), *csvOut))
		return
	}

	if *overloadMode {
		mults, err := parseFloats(*overloadMults)
		if err != nil {
			log.Fatal(err)
		}
		profile, err := workload.ParseSurgeProfile(*surgeShape)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := experiments.OverloadSweep(mults, experiments.OverloadConfig{
			DurationS:     *overloadDur,
			BaseRate:      *overloadRate,
			Profile:       profile,
			SurgeResponse: *surgeResponse,
			HighWM:        *overloadWM,
			Seed:          *overloadSeed,
			Workers:       *workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.Render(experiments.OverloadTable(rows), *csvOut))
		return
	}

	bgs, err := parseFloats(*bgArg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("training EPRONS server power table…")
	eprons, _, _, err := experiments.TrainTablesWorkers(*quick, *workers)
	if err != nil {
		log.Fatal(err)
	}

	constraints := []float64{19e-3, 22e-3, 25e-3, 28e-3, 31e-3, 34e-3, 37e-3, 40e-3}
	rows, err := experiments.Fig13JointPowerScaled(eprons, bgs, constraints, *netScale, *workers)
	if err != nil {
		log.Fatal(err)
	}
	for _, bg := range bgs {
		t := &experiments.Table{
			Title:   fmt.Sprintf("Fig 13 — total system power at %s background traffic (30%% server utilization)", experiments.Pct(bg)),
			Headers: []string{"constraint(ms)", "agg 0", "agg 1", "agg 2", "agg 3"},
		}
		for _, c := range constraints {
			cells := []string{experiments.Ms(c)}
			for level := 0; level < 4; level++ {
				cell := "—"
				for _, r := range rows {
					if r.BgUtil == bg && r.Level == level && r.ConstraintS == c {
						if r.Feasible {
							cell = experiments.W(r.TotalW)
						} else {
							cell = "infeasible"
						}
					}
				}
				cells = append(cells, cell)
			}
			t.AddRow(cells...)
		}
		fmt.Print(experiments.Render(t, *csvOut))
		fmt.Println()
	}
}
