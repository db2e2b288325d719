package metrics

import (
	"math"
	"testing"
)

// QuantileAtOr exists so that control loops polling a window never see NaN
// or a meaningless zero: an empty (or just-evicted) window returns the
// caller's sentinel instead.

func TestQuantileOrEmptyWindow(t *testing.T) {
	w := NewWindow(1)
	if got := w.QuantileAtOr(0, 0.99, -7); got != -7 {
		t.Fatalf("empty window QuantileAtOr = %g, want sentinel", got)
	}
	w.Add(0, 5)
	if got := w.QuantileAtOr(0, 0.99, -7); got != 5 {
		t.Fatalf("QuantileAtOr = %g, want 5", got)
	}
}

func TestQuantileAtOrEvictedWindow(t *testing.T) {
	w := NewWindow(1)
	w.Add(0, 5)
	// Query far past the span: eviction empties the window mid-query and
	// the sentinel, not a stale sample, reaches the caller.
	if got := w.QuantileAtOr(10, 0.99, -7); got != -7 {
		t.Fatalf("evicted window QuantileAtOr = %g, want sentinel", got)
	}
	if n := len(w.vals); n != 0 {
		t.Fatalf("eviction left %d samples", n)
	}
}

func TestQuantileOrRejectsBadQuantiles(t *testing.T) {
	w := NewWindow(1)
	w.Add(0, 5)
	for _, q := range []float64{math.NaN(), 0, -0.5, 1.0001, math.Inf(1)} {
		if got := w.QuantileAtOr(0, q, -7); got != -7 {
			t.Fatalf("QuantileAtOr(%g) = %g, want sentinel", q, got)
		}
	}
	// q = 1 is the maximum — a valid quantile.
	if got := w.QuantileAtOr(0, 1, -7); got != 5 {
		t.Fatalf("QuantileAtOr(1) = %g, want 5", got)
	}
}

func TestGuardedAccessorsNeverNaN(t *testing.T) {
	w := NewWindow(0.5)
	for i := 0; i < 10; i++ {
		now := float64(i) * 0.2
		w.Add(now, float64(i))
		for _, got := range []float64{
			w.QuantileAtOr(now, 0.95, 0),
			w.QuantileAtOr(now, math.NaN(), 0),
			w.QuantileAtOr(now+5, 0.95, 0), // evicts everything
		} {
			if math.IsNaN(got) {
				t.Fatalf("guarded accessor returned NaN at step %d", i)
			}
		}
	}
}
