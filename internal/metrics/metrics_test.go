package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTrackerBasics(t *testing.T) {
	var tr Tracker
	if tr.Mean() != 0 || tr.Quantile(0.5) != 0 || tr.Max() != 0 {
		t.Fatal("empty tracker must return zeros")
	}
	var sum Sum
	if sum.Count() != 0 || sum.Mean() != 0 {
		t.Fatal("empty sum must return zeros")
	}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		tr.Add(v)
	}
	if tr.Count() != 5 {
		t.Fatalf("count %d", tr.Count())
	}
	if tr.Mean() != 3 {
		t.Fatalf("mean %g", tr.Mean())
	}
	if tr.Quantile(0.5) != 3 {
		t.Fatalf("median %g", tr.Quantile(0.5))
	}
	if tr.Quantile(1.0) != 5 || tr.Max() != 5 {
		t.Fatalf("max %g/%g", tr.Quantile(1), tr.Max())
	}
	// Add after sort must still work.
	tr.Add(10)
	if tr.Max() != 10 {
		t.Fatalf("max after re-add %g", tr.Max())
	}
	tr.Reset()
	if tr.Count() != 0 || tr.Mean() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTrackerQuantileEdges(t *testing.T) {
	var tr Tracker
	tr.Add(7)
	if tr.Quantile(0.0001) != 7 || tr.Quantile(1) != 7 {
		t.Fatal("single-sample quantiles must be that sample")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(5)
	w.Add(0, 1)
	w.Add(1, 2)
	w.Add(4, 3)
	if got := w.CountAt(4); got != 3 {
		t.Fatalf("count %d", got)
	}
	w.Add(6, 4) // evicts t=0
	if got := w.CountAt(6); got != 3 {
		t.Fatalf("count after eviction %d", got)
	}
	if got := w.QuantileAtOr(6, 0.5, -1); got != 3 {
		t.Fatalf("window median %g", got)
	}
	if NewWindow(1).QuantileAtOr(0, 0.95, 0) != 0 || NewWindow(1).CountAt(0) != 0 {
		t.Fatal("empty window must return the sentinel and count 0")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty series zeros")
	}
	s.Add(0, 10)
	s.Add(1, 20)
	s.Add(2, 6)
	if s.Len() != 3 || s.Mean() != 12 || s.Min() != 6 || s.Max() != 20 {
		t.Fatalf("series stats %g %g %g", s.Mean(), s.Min(), s.Max())
	}
}

// Property: Tracker.Quantile agrees with the sorted-slice nearest-rank
// definition for every q, and a Sum fed the same stream reports the
// Tracker's count and, bit for bit, its mean. The samples are sevenths,
// so the running sums round.
func TestQuickTrackerQuantile(t *testing.T) {
	f := func(vals []int8, q8 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var tr Tracker
		var sum Sum
		fs := make([]float64, len(vals))
		for i, v := range vals {
			fs[i] = float64(v) / 7
			tr.Add(fs[i])
			sum.Add(fs[i])
		}
		if sum.Count() != tr.Count() || math.Float64bits(sum.Mean()) != math.Float64bits(tr.Mean()) {
			return false
		}
		sort.Float64s(fs)
		q := (float64(q8%100) + 1) / 100
		idx := int(math.Ceil(q*float64(len(fs)))) - 1
		if idx < 0 {
			idx = 0
		}
		return tr.Quantile(q) == fs[idx]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: window quantile is monotone in q.
func TestQuickWindowQuantileMonotone(t *testing.T) {
	f := func(vals []uint8, a8, b8 uint8) bool {
		w := NewWindow(1e9)
		for i, v := range vals {
			w.Add(float64(i), float64(v))
		}
		qa := (float64(a8%100) + 1) / 100
		qb := (float64(b8%100) + 1) / 100
		if qa > qb {
			qa, qb = qb, qa
		}
		now := float64(len(vals))
		return w.QuantileAtOr(now, qa, 0) <= w.QuantileAtOr(now, qb, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
