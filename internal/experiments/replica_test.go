package experiments

import (
	"reflect"
	"testing"

	"eprons/internal/cluster"
)

// TestReplicaSweepAcceptance pins the headline replication results:
//
//   - at a positive fault rate (edge switches included), R=1 loses queries
//     while R=3 with failover sustains >= 95% goodput;
//   - fault-free, the hedged policy cuts p99 versus primary selection at
//     <= 10% extra work;
//   - the planner audit (replica guard + reachability check, run on
//     every cell) shows zero stranded partitions.
func TestReplicaSweepAcceptance(t *testing.T) {
	cfg := ReplicaConfig{DurationS: 5, Seed: 3}

	// Fault axis: R=1 vs R=3 under the same schedule shape.
	rows, err := ReplicaSweep([]int{1, 3}, []cluster.SelectionPolicy{cluster.SelPrimary},
		[]float64{2}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	byR := map[int]ReplicaRow{}
	for _, r := range rows {
		byR[r.Replicas] = r
		if r.Orphans != 0 {
			t.Fatalf("R=%d: %d orphans after drain", r.Replicas, r.Orphans)
		}
		if r.StrandedRejects != 0 {
			t.Fatalf("R=%d: planner stranded %d consolidations", r.Replicas, r.StrandedRejects)
		}
	}
	if byR[1].Lost == 0 {
		t.Fatalf("R=1 lost no queries under fault injection (faults=%d, dropped=%d)",
			byR[1].FaultsInjected, byR[1].DroppedSub)
	}
	if g := byR[3].Goodput; g < 0.95 {
		t.Fatalf("R=3 goodput %.3f < 0.95 (lost=%d, failovers=%d)", g, byR[3].Lost, byR[3].Failovers)
	}
	if byR[3].Failovers == 0 {
		t.Fatal("R=3 sustained goodput without a single failover — fault axis not exercised")
	}
	if byR[3].Goodput <= byR[1].Goodput {
		t.Fatalf("replication did not help: R=3 goodput %.3f <= R=1 %.3f",
			byR[3].Goodput, byR[1].Goodput)
	}

	// Hedging axis: fault-free tail comparison at R=3.
	rows, err = ReplicaSweep([]int{3},
		[]cluster.SelectionPolicy{cluster.SelPrimary, cluster.SelHedged}, []float64{0}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bySel := map[cluster.SelectionPolicy]ReplicaRow{}
	for _, r := range rows {
		bySel[r.Selection] = r
		if r.Lost != 0 || r.Orphans != 0 {
			t.Fatalf("%v: lost=%d orphans=%d in a fault-free cell", r.Selection, r.Lost, r.Orphans)
		}
	}
	pri, hed := bySel[cluster.SelPrimary], bySel[cluster.SelHedged]
	if hed.Hedges == 0 {
		t.Fatal("hedged cell never hedged")
	}
	if hed.Hedges != hed.HedgeWins+hed.HedgeWasted {
		t.Fatalf("hedge identity: %d != %d + %d", hed.Hedges, hed.HedgeWins, hed.HedgeWasted)
	}
	if hed.P99S >= pri.P99S {
		t.Fatalf("hedging did not cut p99: hedged %.4fs >= primary %.4fs", hed.P99S, pri.P99S)
	}
	if hed.HedgeRate > 0.10 {
		t.Fatalf("hedged extra work %.3f > 10%%", hed.HedgeRate)
	}
}

// A non-positive replication factor would label a broadcast run with a
// selection policy it never applies; the sweep rejects it before running.
func TestReplicaSweepRejectsNonPositiveR(t *testing.T) {
	for _, r := range []int{0, -1} {
		if _, err := ReplicaSweep([]int{r, 3}, []cluster.SelectionPolicy{cluster.SelPowerOfTwo},
			[]float64{0}, ReplicaConfig{DurationS: 0.1}); err == nil {
			t.Fatalf("R=%d accepted", r)
		}
	}
}

// The replica sweep is deterministic and worker-invariant: per-cell derived
// seeds make results identical for every worker count. The rows are
// pinned to a golden file.
func TestReplicaSweepWorkerInvariance(t *testing.T) {
	run := func(workers int) []ReplicaRow {
		rows, err := ReplicaSweep([]int{1, 3},
			[]cluster.SelectionPolicy{cluster.SelPrimary, cluster.SelHedged},
			[]float64{0, 1}, ReplicaConfig{DurationS: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	a, b := run(1), run(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("rows differ across worker counts:\n%+v\n%+v", a, b)
	}
	robustnessGolden(t, "replica.txt", a)
}

// Explicit zero via the Disabled sentinel reaches the cluster: with
// retries and timeouts off, R=1 has no recovery machinery at all and any
// sub-query drop is immediately fatal — previously `0` silently meant
// "default on".
func TestDisabledSentinelExpressible(t *testing.T) {
	rows, err := ReplicaSweep([]int{1}, []cluster.SelectionPolicy{cluster.SelPrimary},
		[]float64{2}, ReplicaConfig{
			DurationS:       2,
			SubQueryTimeout: Disabled,
			RetryBudget:     Disabled,
		})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Retries != 0 || r.Timeouts != 0 {
		t.Fatalf("disabled knobs still active: retries=%d timeouts=%d", r.Retries, r.Timeouts)
	}
	if r.Orphans != 0 {
		t.Fatalf("%d orphans after drain", r.Orphans)
	}
}

func TestReplicaConfigRejectsNegative(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   ReplicaConfig
	}{
		{"DurationS", ReplicaConfig{DurationS: -1}},
		{"QueryRate", ReplicaConfig{QueryRate: -40}},
		{"ScaleK", ReplicaConfig{ScaleK: -1}},
		{"RepairMeanS", ReplicaConfig{RepairMeanS: -0.2}},
	} {
		_, err := ReplicaSweep([]int{1}, []cluster.SelectionPolicy{cluster.SelPrimary}, []float64{0}, tc.cfg)
		wantRejected(t, tc.field, err)
	}
}
