package experiments

import (
	"reflect"
	"testing"
)

// The availability sweep is the harness that must prove the recovery
// machinery end to end: under seeded faults, every submitted query
// terminates (Orphans == 0) and the accounting identity holds.
func TestAvailabilitySweepNoOrphans(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level sweep")
	}
	rows, err := AvailabilitySweep([]float64{0, 2}, AvailabilityConfig{
		DurationS: 1.5,
		Seed:      7,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Orphans != 0 {
			t.Fatalf("rate %g: %d orphans — a query neither completed nor was marked lost", r.FailRate, r.Orphans)
		}
		if r.Submitted != r.Completed+r.Lost {
			t.Fatalf("rate %g: accounting identity broken: %d != %d + %d",
				r.FailRate, r.Submitted, r.Completed, r.Lost)
		}
		if r.Submitted == 0 {
			t.Fatalf("rate %g: no queries submitted", r.FailRate)
		}
	}
	// Fault-free cell: nothing dropped, retried or repaired; goodput 1.
	base := rows[0]
	if base.Goodput != 1 || base.Lost != 0 || base.Retries != 0 || base.MsgDropped != 0 || base.FaultsInjected != 0 {
		t.Fatalf("fault-free cell not clean: %+v", base)
	}
	// Faulted cell: the injector actually did something.
	if rows[1].FaultsInjected == 0 {
		t.Fatalf("no faults injected at rate 2: %+v", rows[1])
	}
}

// Worker-count invariance: every fault-rate cell is an independent
// simulation with derived seeds, so sequential and parallel sweeps must be
// bit-identical — including the faulted cells (the fault schedule rides on
// the per-cell seed, not on execution order). The rows are pinned to a
// golden file. In the rate-4 cell sub-queries drop and retries complete
// queries, so the golden also pins the broadcast retry path.
func TestAvailabilitySweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level sweep")
	}
	cfg := AvailabilityConfig{DurationS: 1, Seed: 3}
	rates := []float64{0.5, 2, 4}
	cfg.Workers = 1
	seq, err := AvailabilitySweep(rates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := AvailabilitySweep(rates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("sweep depends on worker count:\nseq: %+v\npar: %+v", seq, par)
	}
	if dense := seq[2]; dense.Retries == 0 || dense.DroppedSub == 0 {
		t.Fatalf("rate-4 cell exercised no retry path: %+v", dense)
	}
	robustnessGolden(t, "availability.txt", seq)
}

func TestAvailabilityConfigRejectsNegative(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   AvailabilityConfig
	}{
		{"DurationS", AvailabilityConfig{DurationS: -1}},
		{"QueryRate", AvailabilityConfig{QueryRate: -40}},
		{"ScaleK", AvailabilityConfig{ScaleK: -1}},
		{"RepairMeanS", AvailabilityConfig{RepairMeanS: -0.2}},
	} {
		_, err := AvailabilitySweep([]float64{0}, tc.cfg)
		wantRejected(t, tc.field, err)
	}
}
