package core

import (
	"testing"

	"eprons/internal/fattree"
)

// BenchmarkPlannerPlanK is the planner layer of the Fig 15 replay: one
// K-search (KMax Greedy consolidations, each priced by the latency and
// server power models) on the k=4 diurnal flow set at 30% server
// utilization and 20% background. A fixed two-by-two server power table
// stands in for the DES-trained one, so the bench times only the planner.
func BenchmarkPlannerPlanK(b *testing.B) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	table := &ServerPowerTable{
		Utils:   []float64{0.1, 0.5},
		Budgets: []float64{10e-3, 30e-3},
		PowerW:  [][]float64{{10, 8}, {20, 16}},
		OK:      [][]bool{{true, true}, {true, true}},
	}
	p, err := NewPlanner(DefaultConfig(), ft, table)
	if err != nil {
		b.Fatal(err)
	}
	flows := (&DiurnalConfig{Planner: p, BgFlows: 12}).planFlows(0.30, 0.20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := p.PlanK(flows, 0.30)
		if err != nil || !plan.Feasible {
			b.Fatalf("plan: err=%v", err)
		}
	}
}
