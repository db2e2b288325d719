package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refQuantile is the specification the incremental sorted view must match:
// copy, full sort, nearest rank.
func refQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// TestTrackerIncrementalSortEquivalence interleaves adds and quantile
// queries and pins the incremental merge against the copy+sort reference,
// including duplicate values, descending runs and the max accessor. A Sum
// fed the same stream must report the Tracker's count and mean bit for
// bit.
func TestTrackerIncrementalSortEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var tr Tracker
	var sum Sum
	var ref []float64
	qs := []float64{0.01, 0.25, 0.5, 0.95, 0.99, 1.0}
	for step := 0; step < 400; step++ {
		k := r.Intn(7) // bursts of 0..6 adds between queries
		for i := 0; i < k; i++ {
			var v float64
			switch r.Intn(3) {
			case 0:
				v = r.Float64()
			case 1:
				v = float64(r.Intn(4)) // heavy duplicates
			default:
				v = -r.Float64() * float64(step+1) // descending-ish runs
			}
			tr.Add(v)
			sum.Add(v)
			ref = append(ref, v)
		}
		if sum.Count() != tr.Count() || math.Float64bits(sum.Mean()) != math.Float64bits(tr.Mean()) {
			t.Fatalf("step %d: Sum count/mean %d/%g, Tracker %d/%g", step, sum.Count(), sum.Mean(), tr.Count(), tr.Mean())
		}
		q := qs[step%len(qs)]
		if got, want := tr.Quantile(q), refQuantile(ref, q); got != want {
			t.Fatalf("step %d: Quantile(%.2f) = %g, want %g (n=%d)", step, q, got, want, len(ref))
		}
		if got, want := tr.Max(), refQuantile(ref, 1.0); len(ref) > 0 && got != want {
			t.Fatalf("step %d: Max = %g, want %g", step, got, want)
		}
		if step%97 == 0 {
			tr.Reset()
			sum = Sum{}
			ref = ref[:0]
		}
	}
	if tr.Quantile(0.5) == 0 && tr.Count() > 0 && refQuantile(ref, 0.5) != 0 {
		t.Fatal("post-loop sanity")
	}
}

// TestTrackerQuantileSteadyStateAllocs pins the headline property: a
// steady-state add-then-query cycle on a warmed tracker allocates nothing
// (the previous implementation re-sorted in place, which was also 0 allocs
// but destroyed insertion order and cost O(n log n) per post-Add query;
// the retained-merge version must not regress to per-query copies).
func TestTrackerQuantileSteadyStateAllocs(t *testing.T) {
	var tr Tracker
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		tr.Add(r.Float64())
	}
	tr.Quantile(0.5) // warm the sorted/tail/merged buffers
	tr.Add(r.Float64())
	tr.Quantile(0.5) // warm the merge path
	var x float64
	allocs := testing.AllocsPerRun(100, func() {
		tr.Add(0.25)
		x += tr.Quantile(0.95)
		x += tr.Quantile(0.5)
	})
	if allocs != 0 {
		t.Fatalf("steady-state add+quantile allocates %.1f/op, want 0", allocs)
	}
	_ = x
}

// TestWindowQuantileScratchReuse: the sliding-window monitor's per-query
// sort runs on a retained scratch buffer — equivalence with the reference
// plus 0 steady-state allocs.
func TestWindowQuantileScratchReuse(t *testing.T) {
	w := NewWindow(5)
	r := rand.New(rand.NewSource(3))
	now := 0.0
	for i := 0; i < 500; i++ {
		now += 0.01
		w.Add(now, r.Float64())
	}
	if got, want := w.QuantileAtOr(now, 0.95, -1), refQuantile(w.vals, 0.95); got != want {
		t.Fatalf("window quantile %g, want %g", got, want)
	}
	var x float64
	allocs := testing.AllocsPerRun(100, func() {
		x += w.QuantileAtOr(now, 0.95, -1)
		x += w.QuantileAtOr(now, 0.5, -1)
	})
	if allocs != 0 {
		t.Fatalf("warm window quantile allocates %.1f/op, want 0", allocs)
	}
	_ = x
}
