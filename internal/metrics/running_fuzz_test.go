package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// FuzzRunningQuantile holds RunningQuantile to Tracker.Quantile bit for
// bit after every Add. Each input byte is one sample, b/16, so inputs
// longer than a few dozen bytes are full of ties and duplicates; the
// quantiles cover the median, the hedge trigger's p95, p99 and the max.
func FuzzRunningQuantile(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	long := make([]byte, 1500)
	r.Read(long)
	asc := make([]byte, 256)
	for i := range asc {
		asc[i] = byte(i)
	}
	desc := bytes.Clone(asc)
	for i, j := 0, len(desc)-1; i < j; i, j = i+1, j-1 {
		desc[i], desc[j] = desc[j], desc[i]
	}
	f.Add([]byte{})
	f.Add([]byte{7})
	f.Add(bytes.Repeat([]byte{3}, 64))
	f.Add([]byte{0, 255, 0, 255, 128, 128, 1, 254, 2, 253})
	f.Add(asc)
	f.Add(desc)
	f.Add(long)
	qs := []float64{0.5, 0.95, 0.99, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref Tracker
		run := make([]RunningQuantile, len(qs))
		for i, q := range qs {
			run[i] = NewRunningQuantile(q)
		}
		for n, b := range data {
			v := float64(b) / 16
			ref.Add(v)
			for i, q := range qs {
				run[i].Add(v)
				if run[i].Count() != n+1 {
					t.Fatalf("q=%g: Count %d after %d adds", q, run[i].Count(), n+1)
				}
				got, want := run[i].Value(), ref.Quantile(q)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("q=%g after %d adds: running %v, tracker %v", q, n+1, got, want)
				}
			}
		}
	})
}
