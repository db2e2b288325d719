package main

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"eprons/internal/experiments"
)

// pinnedOutcome is a workload's default-seed outcome as pins.go holds it.
func pinnedOutcome(t *testing.T, name string) *outcome {
	t.Helper()
	var keys []string
	for k := range pins[name] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	o := &outcome{}
	for _, k := range keys {
		v, err := strconv.ParseFloat(pins[name][k], 64)
		if err != nil {
			t.Fatalf("%s pin %s: %v", name, k, err)
		}
		o.outputs = append(o.outputs, output{k, v})
	}
	return o
}

func TestPinsVerify(t *testing.T) {
	for _, name := range workloadNames() {
		if len(pins[name]) == 0 {
			t.Errorf("%s has no pinned outputs", name)
			continue
		}
		if err := verify(name, 0, pinnedOutcome(t, name)); err != nil {
			t.Errorf("%s: pinned outcome does not verify: %v", name, err)
		}
	}
}

// TestPerturbedOutputFails moves each pinned output by one ulp: verify
// must reject every one at the default seed, and at any seed for a
// seed-free workload.
func TestPerturbedOutputFails(t *testing.T) {
	for _, name := range workloadNames() {
		_, free := workloads[name].(seedFree)
		for i := 0; i < len(pins[name]); i++ {
			o := pinnedOutcome(t, name)
			o.outputs[i].value = math.Nextafter(o.outputs[i].value, math.Inf(1))
			if verify(name, 0, o) == nil {
				t.Errorf("%s: output %s off by one ulp verified", name, o.outputs[i].name)
			}
			if err := verify(name, 7, o); (err == nil) == free {
				t.Errorf("%s at seed 7: output %s off by one ulp gave %v", name, o.outputs[i].name, err)
			}
		}
	}
}

// perturbed is a workload whose timed phase returns a pinned outcome with
// one output moved by one ulp.
type perturbed struct{ o *outcome }

func (p *perturbed) setup(int64) error                { return nil }
func (p *perturbed) setupTraced(int64, *tracer) error { return nil }
func (p *perturbed) run() (*outcome, error)           { return p.o, nil }
func (p *perturbed) runTraced(*tracer) (*outcome, error) {
	return p.o, nil
}

// TestPerturbedOutputIsFailedOperation runs the end-to-end loop on a
// perturbed outcome: every repetition counts as a failed operation and the
// report is not correct.
func TestPerturbedOutputIsFailedOperation(t *testing.T) {
	const name = "robustness-mix"
	o := pinnedOutcome(t, name)
	o.outputs[0].value = math.Nextafter(o.outputs[0].value, 0)
	rep, err := endToEnd(name, &perturbed{o}, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempted == 0 || rep.Failed != rep.Attempted || rep.Correct {
		t.Fatalf("perturbed output: attempted %d, failed %d, correct %v", rep.Attempted, rep.Failed, rep.Correct)
	}
}

func TestRowIdentities(t *testing.T) {
	good := experiments.ReplicaRow{Submitted: 10, Completed: 8, Lost: 2, Hedges: 3, HedgeWins: 1, HedgeWasted: 2}
	if v := replicaViolations("r", good); len(v) > 0 {
		t.Fatalf("consistent replica row: %v", v)
	}
	for _, bad := range []experiments.ReplicaRow{
		{Submitted: 10, Completed: 8, Lost: 1, Orphans: 1},
		{Submitted: 10, Completed: 9, Lost: 2},
		{Submitted: 10, Completed: 10, Hedges: 3, HedgeWins: 1, HedgeWasted: 1},
		{},
	} {
		if len(replicaViolations("r", bad)) == 0 {
			t.Errorf("replica row %+v passed", bad)
		}
	}
	cell := experiments.OverloadCell{Submitted: 10, Completed: 6, Shed: 3, Lost: 1}
	if v := cellViolations("c", cell); len(v) > 0 {
		t.Fatalf("consistent cell: %v", v)
	}
	cell.Shed = 2
	if len(cellViolations("c", cell)) == 0 {
		t.Error("cell losing a query passed")
	}
}

func TestSamplePackage(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mapaccess2", "eprons/internal/topology.(*Graph).FindLink", "eprons/internal/experiments.ecmpPath"}, "topology"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "eprons/internal/netsim.(*Network).SendMessage"}, "gc"},
		{[]string{"eprons/internal/sim/internal.x", "main.main"}, "sim"},
		{[]string{"runtime.futex", "runtime.main"}, "other"},
	} {
		if got := samplePackage(c.frames); got != c.want {
			t.Errorf("samplePackage(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
