package experiments

import (
	"math"
	"testing"
	"time"

	"eprons/internal/consolidate"
	"eprons/internal/core"
	"eprons/internal/dvfs"
	"eprons/internal/fattree"
	"eprons/internal/flow"
	"eprons/internal/server"
	"eprons/internal/twin"
)

// TwinCheck over the Fig 10 grid: in-domain cells must sit inside the
// pinned bands, and every out-of-domain cell must be flagged, never
// silently folded into the bands.
func TestTwinCheckBandsAndClamps(t *testing.T) {
	if testing.Short() {
		t.Skip("DES validation sweep")
	}
	sum, err := TwinCheck(TwinCheckConfig{
		Levels:  []int{0, 3},
		BgUtils: []float64{0.1, 0.2, 0.4},
		Net:     NetLatencyConfig{DurationS: 1.5, Workers: 4},
		Quick:   true,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.InDomain == 0 {
		t.Fatal("no in-domain cells validated")
	}
	if sum.NetMaxRel > TwinNetRelBand {
		t.Fatalf("network in-domain relative error %.3f exceeds the pinned band %.2f", sum.NetMaxRel, TwinNetRelBand)
	}
	if sum.ServerMaxRel > TwinServerRelBand {
		t.Fatalf("server in-domain relative error %.3f exceeds the pinned band %.2f", sum.ServerMaxRel, TwinServerRelBand)
	}
	// The deepest level at bg 0.4 concentrates 3x the load on one core
	// switch: the twin must clamp it (and the DES agrees — unplaceable).
	var saturated *TwinCheckRow
	for i, r := range sum.Rows {
		if r.Kind == "net" && r.Level == 3 && r.BgUtil == 0.4 {
			saturated = &sum.Rows[i]
		}
		// A clamped cell must never contribute a finite error to the
		// bands: RelErr is defined only against a feasible DES cell.
		if r.Clamped && !math.IsNaN(r.RelErr) && r.RelErr > TwinNetRelBand && r.DESFeasible {
			t.Fatalf("clamped cell leaked into the error bands: %+v", r)
		}
	}
	if saturated == nil {
		t.Fatal("saturated grid cell missing from the sweep")
	}
	if !saturated.Clamped {
		t.Fatalf("saturated cell not flagged as clamped: %+v", *saturated)
	}
	if saturated.DESFeasible {
		t.Fatalf("DES placed a load the fabric cannot carry: %+v", *saturated)
	}
	if sum.Clamped == 0 {
		t.Fatal("sweep reported no clamped cells")
	}
	if sum.Disagree != 0 {
		t.Fatalf("twin/DES feasibility disagreement on %d cells", sum.Disagree)
	}
	robustnessGolden(t, "twincheck.txt", sum.Rows)
}

// quickEPRONSTable trains the 4-core quick EPRONS server table — the DES
// side of the planner comparisons.
func quickEPRONSTable(t testing.TB) *core.ServerPowerTable {
	t.Helper()
	cfg := core.DefaultTrainConfig()
	cfg.Policy = func(m *dvfs.Model) server.Policy { return dvfs.NewEPRONSServer(m, 0.05) }
	cfg.Cores = 4
	cfg.Utils = []float64{0.10, 0.30, 0.50}
	cfg.Budgets = []float64{8e-3, 12e-3, 20e-3, 30e-3}
	cfg.Duration = 20.0 / 3
	cfg.Workers = 4
	table, err := core.TrainServerPowerTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// The twin-driven K search (plus its DES spot check of the argmax
// neighborhood) must land on the DES-driven planner's choice at the
// Fig 13 operating points — either the same K, or a K whose DES-priced
// total power is within noise of the DES argmin (the landscape is exactly
// flat across K wherever the lowest DVFS state is already feasible, so
// tie-breaks there are decided by sub-milliwatt training noise).
func TestTwinPlanKMatchesDESPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("DES training")
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	table := quickEPRONSTable(t)
	tm, err := twin.New(twin.Config{CoresPerServer: 4})
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.DefaultConfig()
	desPlanner, err := core.NewPlanner(pcfg, ft, table)
	if err != nil {
		t.Fatal(err)
	}
	desPlanner.Workers = 4
	for _, bg := range []float64{0.01, 0.20, 0.50} {
		res, err := TwinPlanK(ft, pcfg, tm, table, 0.30, bg, 4)
		if err != nil {
			t.Fatalf("bg %.2f: %v", bg, err)
		}
		flows := jointFlows(ft, 0.30, bg)
		desPlan, err := desPlanner.PlanK(flows, 0.30)
		if err != nil {
			t.Fatalf("bg %.2f: DES plan: %v", bg, err)
		}
		if res.VerifiedK == desPlan.K {
			continue
		}
		// Flat-landscape case: re-price the twin's choice through the DES
		// model and demand it within 0.01% of the DES optimum.
		verified := priceK(t, desPlanner, flows, res.VerifiedK)
		if rel := (verified - desPlan.TotalPowerW) / desPlan.TotalPowerW; rel > 1e-4 {
			t.Fatalf("bg %.2f: twin-verified K=%d costs %.4f W vs DES K=%d at %.4f W (rel %.2e)",
				bg, res.VerifiedK, verified, desPlan.K, desPlan.TotalPowerW, rel)
		}
	}
}

// priceK re-prices scale factor k through a planner's server model (the
// per-candidate evaluation PlanK performs internally).
func priceK(t testing.TB, p *core.Planner, flows []flow.Flow, k int) float64 {
	t.Helper()
	res, err := consolidate.Greedy(p.FT, flows, consolidate.Config{ScaleK: float64(k), SafetyMarginBps: p.Cfg.SafetyMarginBps})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("K=%d: infeasible consolidation", k)
	}
	plan := p.EvaluateCandidate(k, res, flows, 0.30)
	if !plan.Feasible {
		t.Fatalf("K=%d: infeasible plan", k)
	}
	return plan.TotalPowerW
}

// The twin inner loop must beat the DES inner loop by >= 10x wall time:
// the DES-driven planner cannot price a candidate without its trained
// table, so the honest comparison is (train + search) against
// (twin build + search), both at the production configuration — the
// default 12-core training grid the planner actually runs from (the quick
// grid exists only to make correctness tests cheap).
func TestTwinPlannerInnerLoopSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("DES training")
	}
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pcfg := core.DefaultConfig()
	flows := jointFlows(ft, 0.30, 0.20)

	t0 := time.Now()
	tcfg := core.DefaultTrainConfig()
	tcfg.Policy = func(m *dvfs.Model) server.Policy { return dvfs.NewEPRONSServer(m, 0.05) }
	tcfg.Workers = 4
	table, err := core.TrainServerPowerTable(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	desPlanner, err := core.NewPlanner(pcfg, ft, table)
	if err != nil {
		t.Fatal(err)
	}
	desPlanner.Workers = 4
	if _, err := desPlanner.PlanK(flows, 0.30); err != nil {
		t.Fatal(err)
	}
	desDur := time.Since(t0)

	t0 = time.Now()
	tm, err := twin.New(twin.Config{})
	if err != nil {
		t.Fatal(err)
	}
	twinPlanner, err := core.NewPlanner(pcfg, ft, tm)
	if err != nil {
		t.Fatal(err)
	}
	twinPlanner.Workers = 4
	if _, err := twinPlanner.PlanK(flows, 0.30); err != nil {
		t.Fatal(err)
	}
	twinDur := time.Since(t0)

	if desDur < 10*twinDur {
		t.Fatalf("twin inner loop %s is not 10x faster than DES inner loop %s", twinDur, desDur)
	}
	t.Logf("inner loop: DES %s vs twin %s (%.0fx)", desDur, twinDur, float64(desDur)/float64(twinDur))
}

func BenchmarkTwinPlanK(b *testing.B) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	tm, err := twin.New(twin.Config{CoresPerServer: 4})
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewPlanner(core.DefaultConfig(), ft, tm)
	if err != nil {
		b.Fatal(err)
	}
	flows := jointFlows(ft, 0.30, 0.20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.PlanK(flows, 0.30); err != nil {
			b.Fatal(err)
		}
	}
}
