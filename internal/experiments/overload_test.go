package experiments

import (
	"reflect"
	"testing"
)

// checkCellConservation asserts the query-accounting identity the overload
// control plane must never break, protected or not.
func checkCellConservation(t *testing.T, label string, c OverloadCell) {
	t.Helper()
	if c.Orphans != 0 {
		t.Fatalf("%s: %d orphans after drain", label, c.Orphans)
	}
	if c.Submitted != c.Completed+c.Shed+c.Lost {
		t.Fatalf("%s: conservation violated: %d != %d + %d + %d",
			label, c.Submitted, c.Completed, c.Shed, c.Lost)
	}
	if c.Submitted == 0 {
		t.Fatalf("%s: no queries submitted", label)
	}
}

// TestOverloadSweepAcceptance is the PR's acceptance criterion: at 3x
// offered load the admission-controlled system keeps p99 bounded for the
// queries it admits (SLA attainment within 5%% of the 1x point) while
// shedding the excess, and the unprotected baseline exhibits unbounded
// queue growth. Both curves are produced by the same sweep. Every cell
// passes the runtime invariant checks, which the sweep always runs.
func TestOverloadSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second overload simulation")
	}
	cfg := OverloadConfig{
		SurgeResponse: true,
		Workers:       2,
	}
	rows, err := OverloadSweep([]float64{1, 3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	r1, r3 := rows[0], rows[1]

	for _, c := range []struct {
		label string
		cell  OverloadCell
	}{
		{"1x AC", r1.AC}, {"1x NoAC", r1.NoAC},
		{"3x AC", r3.AC}, {"3x NoAC", r3.NoAC},
	} {
		checkCellConservation(t, c.label, c.cell)
	}

	// At 1x the control plane must be transparent: no shedding, and the
	// AC and NoAC cells are bit-identical (same seed, zero interventions).
	if r1.AC.Shed != 0 || r1.AC.RejectedSub != 0 {
		t.Fatalf("1x AC shed %d / rejected %d — control plane intervened below capacity",
			r1.AC.Shed, r1.AC.RejectedSub)
	}
	if !reflect.DeepEqual(r1.AC, r1.NoAC) {
		t.Fatalf("1x cells diverged with zero interventions:\nAC:   %+v\nNoAC: %+v", r1.AC, r1.NoAC)
	}

	// At 3x the protected system sheds explicitly...
	if r3.AC.ShedRate <= 0 {
		t.Fatal("3x AC shed nothing under a 3x flash crowd")
	}
	if r3.NoAC.Shed != 0 {
		t.Fatalf("baseline shed %d queries with admission disabled", r3.NoAC.Shed)
	}
	// ...keeps its queues bounded while the baseline's grow without bound...
	if r3.AC.PeakQueue >= 20 {
		t.Fatalf("3x AC peak queue %d — watermark did not bound the backlog", r3.AC.PeakQueue)
	}
	if r3.NoAC.PeakQueue <= 50 || r3.NoAC.EndQueue <= 200 {
		t.Fatalf("3x baseline peakQ %d endQ %d — expected unbounded growth signature",
			r3.NoAC.PeakQueue, r3.NoAC.EndQueue)
	}
	// ...and keeps the admitted tail bounded while the baseline's explodes.
	if r3.NoAC.P99S <= 3*r3.AC.P99S {
		t.Fatalf("3x p99: baseline %.4fs vs AC %.4fs — control plane bought < 3x",
			r3.NoAC.P99S, r3.AC.P99S)
	}
	if gap := r1.AC.AttainRate - r3.AC.AttainRate; gap > 0.05 {
		t.Fatalf("SLA attainment degraded %.1f%% from 1x (%.3f) to 3x (%.3f); budget is 5%%",
			100*gap, r1.AC.AttainRate, r3.AC.AttainRate)
	}
	if r3.NoAC.AttainRate >= 0.5 {
		t.Fatalf("baseline attainment %.3f at 3x — overload not severe enough to matter",
			r3.NoAC.AttainRate)
	}
	// The surge response re-expanded the consolidated fabric at least once.
	if r3.AC.SurgeExpansions < 1 {
		t.Fatalf("3x AC surge expansions %d, want >= 1", r3.AC.SurgeExpansions)
	}
}

// TestOverloadSweepWorkerInvariance: the sweep is bit-identical for every
// worker count — cells derive their seeds from the multiplier index, never
// from scheduling order. The rows are pinned to a golden file.
func TestOverloadSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second overload simulation")
	}
	mults := []float64{0.5, 1.5, 3}
	cfg := OverloadConfig{DurationS: 1, SurgeResponse: true}
	cfg.Workers = 1
	seq, err := OverloadSweep(mults, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := OverloadSweep(mults, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("worker count changed results:\n1 worker:  %+v\n4 workers: %+v", seq, par)
	}
	robustnessGolden(t, "overload.txt", seq)
}

func TestOverloadSweepRejectsBadMultiplier(t *testing.T) {
	if _, err := OverloadSweep([]float64{-1}, OverloadConfig{DurationS: 0.1}); err == nil {
		t.Fatal("negative multiplier accepted")
	}
}

// TestOverloadFaultsCombinedStress layers a 2.5x flash crowd on top of the
// fault-injection availability sweep with the admission control plane
// engaged: switches crash and links flap while the cluster is shedding.
// Conservation and the runtime audit (which every cell runs) must hold,
// and the combined run must stay bit-identical across worker counts and
// to its golden file.
func TestOverloadFaultsCombinedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault+overload simulation")
	}
	cfg := AvailabilityConfig{
		DurationS:      3,
		QueryRate:      300,
		SurgeMagnitude: 2.5,
		Admission:      true,
		Workers:        1,
	}
	rates := []float64{0, 1}
	rows, err := AvailabilitySweep(rates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Orphans != 0 {
			t.Fatalf("fail rate %g: %d orphans after drain", r.FailRate, r.Orphans)
		}
		if r.Submitted != r.Completed+r.Lost+r.Shed {
			t.Fatalf("fail rate %g: conservation violated: %d != %d + %d + %d",
				r.FailRate, r.Submitted, r.Completed, r.Lost, r.Shed)
		}
	}
	// The surge overdrives the cluster, so even the fault-free cell sheds.
	if rows[0].Shed == 0 {
		t.Fatal("2.5x surge over a 300 q/s base shed nothing")
	}
	cfg.Workers = 4
	par, err := AvailabilitySweep(rates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, par) {
		t.Fatal("fault+overload sweep diverged across worker counts")
	}
	robustnessGolden(t, "availability_surge.txt", rows)
}

func TestOverloadConfigRejectsNegative(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   OverloadConfig
	}{
		{"DurationS", OverloadConfig{DurationS: -1}},
		{"BaseRate", OverloadConfig{BaseRate: -200}},
		{"ScaleK", OverloadConfig{ScaleK: -1}},
		{"TTPeriod", OverloadConfig{TTPeriod: -1}},
	} {
		_, err := OverloadSweep([]float64{1}, tc.cfg)
		wantRejected(t, tc.field, err)
	}
}
