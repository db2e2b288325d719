// Command epronsim regenerates the headline diurnal experiment: Fig 14's
// 24-hour traces and Fig 15's total-system-power comparison of EPRONS,
// TimeTrader and no power management, reporting average and peak savings
// (the paper: 25% average, 31.25% peak for EPRONS vs 8% / 12.5% for
// TimeTrader).
//
// Usage:
//
//	epronsim [-quick] [-step 60] [-traces]
//
// The robustness sweeps (-faults, -overload, -replicas) and the analytic
// twin (-twin) live in `joint`.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"eprons/internal/experiments"
	"eprons/internal/parallel"
)

func main() {
	quick := flag.Bool("quick", false, "small training grid (faster, coarser)")
	step := flag.Float64("step", 60, "reporting granularity in seconds (Fig 15 uses 60)")
	tracesOnly := flag.Bool("traces", false, "print only the Fig 14 traces")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "concurrency for table training, the per-scheme diurnal replays and the planner's K search (<=1 runs sequentially, results are identical either way)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
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

	if *tracesOnly {
		printTraces(*csvOut)
		return
	}

	fmt.Println("training server power tables (EPRONS, TimeTrader, MaxFreq)…")
	eprons, tt, mf, err := experiments.TrainTablesWorkers(*quick, *workers)
	if err != nil {
		log.Fatal(err)
	}
	sum, err := experiments.Fig15DiurnalWorkers(eprons, tt, mf, *step, *workers)
	if err != nil {
		log.Fatal(err)
	}
	res := sum.Result

	t := &experiments.Table{
		Title:   "Fig 15(a) — total system power over 24 h (hourly rows; simulation at the chosen step)",
		Headers: []string{"hour", "search load", "background", "EPRONS (W)", "TimeTrader (W)", "no PM (W)", "EPRONS net (W)"},
	}
	perHour := int(3600 / *step)
	if perHour < 1 {
		perHour = 1
	}
	for i := 0; i < res.EPRONS.TotalW.Len(); i += perHour {
		t.AddRow(
			fmt.Sprintf("%02d:00", int(res.Times[i]/3600)),
			experiments.Pct(res.SearchLoad[i]),
			experiments.Pct(res.BgLoad[i]),
			experiments.W(res.EPRONS.TotalW.V[i]),
			experiments.W(res.TimeTrader.TotalW.V[i]),
			experiments.W(res.NoPM.TotalW.V[i]),
			experiments.W(res.EPRONS.NetW.V[i]),
		)
	}
	fmt.Print(experiments.Render(t, *csvOut))

	fmt.Println("\nFig 15(b) — savings vs no power management:")
	fmt.Printf("  EPRONS:     total avg %s, total peak %s, server avg %s, network avg %s\n",
		experiments.Pct(sum.EPRONSAvgSaving), experiments.Pct(sum.EPRONSPeakSaving),
		experiments.Pct(sum.ServerAvgEPRONS), experiments.Pct(sum.NetAvgEPRONS))
	fmt.Printf("  TimeTrader: total avg %s, total peak %s, server avg %s, network avg 0.0%%\n",
		experiments.Pct(sum.TTAvgSaving), experiments.Pct(sum.TTPeakSaving),
		experiments.Pct(sum.ServerAvgTT))
	fmt.Printf("\npaper reference: EPRONS 25%% avg / 31.25%% peak; TimeTrader 8%% avg / 12.5%% peak\n")
}

func printTraces(csv bool) {
	times, search, bg := experiments.Fig14Traces(48)
	t := &experiments.Table{
		Title:   "Fig 14 — diurnal traces (half-hour samples)",
		Headers: []string{"time", "search load (% of peak)", "background (% of bandwidth)"},
	}
	for i := range times {
		h := int(times[i]) / 3600
		m := (int(times[i]) % 3600) / 60
		t.AddRow(fmt.Sprintf("%02d:%02d", h, m), experiments.Pct(search[i]), experiments.Pct(bg[i]))
	}
	fmt.Print(experiments.Render(t, csv))
}
