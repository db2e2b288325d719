package core

import (
	"math"
	"reflect"
	"testing"

	"eprons/internal/fattree"
	"eprons/internal/workload"
)

// The parallel sweep/search rewrites promise bit-identical results for
// every worker count: per-cell rng streams derive from (seed, cell), cells
// never share mutable state, and reductions scan in the historical loop
// order. These tests pin that contract by comparing a strictly sequential
// run (workers=1, the historical code path) against workers=4.

func TestTrainTableWorkerCountInvariance(t *testing.T) {
	train := func(workers int) *ServerPowerTable {
		cfg := smallTrain(nil)
		cfg.Duration = 3
		cfg.Workers = workers
		tb, err := TrainServerPowerTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tb
	}
	seq, par := train(1), train(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("trained tables differ across worker counts:\nseq %+v\npar %+v", seq, par)
	}
}

func TestPlanKWorkerCountInvariance(t *testing.T) {
	cfg := smallTrain(nil)
	cfg.Duration = 3
	tb, err := TrainServerPowerTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := func(workers int) *Plan {
		p, err := NewPlanner(DefaultConfig(), ft, tb)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = workers
		dcfg := DiurnalConfig{Planner: p, BgFlows: 12}
		flows := dcfg.planFlows(0.30, 0.20)
		pl, err := p.PlanK(flows, 0.30)
		if err != nil {
			t.Fatal(err)
		}
		return pl
	}
	seq, par := plan(1), plan(4)
	if seq.K != par.K || seq.Feasible != par.Feasible {
		t.Fatalf("plan identity differs: seq K=%d feasible=%v, par K=%d feasible=%v",
			seq.K, seq.Feasible, par.K, par.Feasible)
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for _, c := range []struct {
		name   string
		sv, pv float64
	}{
		{"TotalPowerW", seq.TotalPowerW, par.TotalPowerW},
		{"NetworkPowerW", seq.NetworkPowerW, par.NetworkPowerW},
		{"ServerPowerW", seq.ServerPowerW, par.ServerPowerW},
		{"SlackS", seq.SlackS, par.SlackS},
		{"PredNetTailS", seq.PredNetTailS, par.PredNetTailS},
	} {
		if bits(c.sv) != bits(c.pv) {
			t.Fatalf("%s not bit-identical: %v vs %v", c.name, c.sv, c.pv)
		}
	}
	if seq.Res.Active.ActiveSwitches() != par.Res.Active.ActiveSwitches() {
		t.Fatalf("active switch counts differ: %d vs %d",
			seq.Res.Active.ActiveSwitches(), par.Res.Active.ActiveSwitches())
	}
}

func TestRunDiurnalWorkerCountInvariance(t *testing.T) {
	cfg := smallTrain(nil)
	cfg.Duration = 3
	tb, err := TrainServerPowerTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *DiurnalResult {
		p, err := NewPlanner(DefaultConfig(), ft, tb)
		if err != nil {
			t.Fatal(err)
		}
		p.Workers = workers
		res, err := RunDiurnal(DiurnalConfig{
			Planner:         p,
			TimeTraderTable: tb,
			MaxFreqTable:    tb,
			SearchTrace:     workload.SearchLoadTrace(),
			BgTrace:         workload.BackgroundTrace(),
			StepS:           3600,
			OptimizePeriodS: 7200,
			Workers:         workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("diurnal result differs across worker counts")
	}
}
