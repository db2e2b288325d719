package metrics

import "testing"

// Regression: a Window only evicted on Add, so after a quiet gap (no new
// samples) queries answered over samples far older than the span —
// TimeTrader's monitor would keep reacting to latencies from minutes ago.
// Every read now evicts as of the query time.

func TestWindowStaleAfterIdleGap(t *testing.T) {
	w := NewWindow(10)
	w.Add(0, 1.0)
	w.Add(1, 2.0)

	// Far past the span with no intervening Add: time-fresh queries must
	// see an empty window.
	now := 100.0
	if got := w.QuantileAtOr(now, 0.95, -7); got != -7 {
		t.Fatalf("QuantileAtOr=%g, want the sentinel", got)
	}
	if got := w.CountAt(now); got != 0 {
		t.Fatalf("CountAt(%g)=%d, want 0", now, got)
	}
}

func TestWindowEvictBefore(t *testing.T) {
	w := NewWindow(10)
	w.Add(0, 1.0)
	w.Add(5, 2.0)
	w.Add(12, 3.0) // evicts the t=0 sample (cut = 2)
	if got := w.CountAt(12); got != 2 {
		t.Fatalf("CountAt=%d after Add-driven eviction, want 2", got)
	}
	// cut = 6: only the t=12 sample survives a read at t=16.
	if got := w.QuantileAtOr(16, 0.01, -7); got != 3.0 {
		t.Fatalf("QuantileAtOr=%g, want 3", got)
	}
	if got := w.CountAt(16); got != 1 {
		t.Fatalf("CountAt=%d after read-driven eviction, want 1", got)
	}
}

func TestWindowAtVariantsMatchFreshWindow(t *testing.T) {
	// When nothing is stale, the reads answer over every sample.
	w := NewWindow(10)
	var all []float64
	for i := 0; i < 5; i++ {
		w.Add(float64(i), float64(i))
		all = append(all, float64(i))
	}
	now := 5.0
	if w.CountAt(now) != len(all) {
		t.Fatal("CountAt diverges on a fresh window")
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 1} {
		if got, want := w.QuantileAtOr(now, q, -7), refQuantile(all, q); got != want {
			t.Fatalf("QuantileAtOr(%g) = %g on a fresh window, want %g", q, got, want)
		}
	}
}
