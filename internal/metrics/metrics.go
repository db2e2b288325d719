// Package metrics provides latency and power measurement primitives shared
// by the simulators and the experiment harnesses: exact percentile trackers,
// count-plus-sum means, sliding-window tail monitors (TimeTrader's feedback
// loop, the surge signal) and time series.
package metrics

import (
	"math"
	"sort"
)

// Tracker accumulates samples and answers exact percentile queries. It is
// intended for offline experiment analysis where sample counts are bounded.
//
// Samples stay in insertion order; quantile queries maintain a retained
// sorted view incrementally — only the samples added since the last query
// are sorted (a tail typically much smaller than the history) and merged
// into the previous sorted view, with all three buffers reused across
// queries. A steady-state query cycle (add a few, query, repeat) therefore
// allocates nothing, where the previous implementation re-sorted the whole
// sample set in place on every post-Add query.
type Tracker struct {
	samples []float64
	sum     float64
	// sorted mirrors samples[:len(sorted)] in ascending order. tail and
	// merged are the retained scratch buffers of the incremental merge.
	sorted []float64
	tail   []float64
	merged []float64
}

// Add records one sample.
func (t *Tracker) Add(v float64) {
	t.samples = append(t.samples, v)
	t.sum += v
}

// Count returns the number of recorded samples.
func (t *Tracker) Count() int { return len(t.samples) }

// Mean returns the sample mean, or 0 with no samples.
func (t *Tracker) Mean() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	return t.sum / float64(len(t.samples))
}

// Sum accumulates a sample count and running sum: a Tracker for
// statistics that are only ever averaged, without keeping the samples.
// Its Mean adds in insertion order exactly as Tracker.Mean does, so the
// two agree bit for bit on the same stream.
type Sum struct {
	n   int
	sum float64
}

// Add records one sample.
func (s *Sum) Add(v float64) {
	s.n++
	s.sum += v
}

// Count returns the number of recorded samples.
func (s *Sum) Count() int { return s.n }

// Mean returns the sample mean, or 0 with no samples.
func (s *Sum) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// ensureSorted brings the retained sorted view up to date: sort the tail
// of samples added since the last query, then merge it with the existing
// sorted prefix. Both scratch buffers are retained and swapped, so the
// amortized query cost is O(k log k + n) time and zero allocations once
// the buffers have grown to the high-water mark.
func (t *Tracker) ensureSorted() {
	n := len(t.samples)
	if len(t.sorted) == n {
		return
	}
	tl := append(t.tail[:0], t.samples[len(t.sorted):]...)
	sort.Float64s(tl)
	t.tail = tl
	if len(t.sorted) == 0 {
		t.sorted = append(t.sorted[:0], tl...)
		return
	}
	out := t.merged[:0]
	i, j := 0, 0
	for i < len(t.sorted) && j < len(tl) {
		if t.sorted[i] <= tl[j] {
			out = append(out, t.sorted[i])
			i++
		} else {
			out = append(out, tl[j])
			j++
		}
	}
	out = append(out, t.sorted[i:]...)
	out = append(out, tl[j:]...)
	t.merged = t.sorted[:0] // old sorted becomes next merge scratch
	t.sorted = out
}

// Quantile returns the nearest-rank q-quantile (q in (0,1]), or 0 with no
// samples.
func (t *Tracker) Quantile(q float64) float64 {
	if len(t.samples) == 0 {
		return 0
	}
	t.ensureSorted()
	idx := int(math.Ceil(q*float64(len(t.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(t.sorted) {
		idx = len(t.sorted) - 1
	}
	return t.sorted[idx]
}

// Max returns the largest sample, or 0 with no samples.
func (t *Tracker) Max() float64 {
	if len(t.samples) == 0 {
		return 0
	}
	if len(t.sorted) == len(t.samples) {
		return t.sorted[len(t.sorted)-1]
	}
	m := t.samples[0]
	for _, v := range t.samples[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Reset discards all samples, retaining every buffer's capacity.
func (t *Tracker) Reset() {
	t.samples = t.samples[:0]
	t.sorted = t.sorted[:0]
	t.sum = 0
}

// RunningQuantile tracks one nearest-rank quantile of a growing sample set
// exactly — the value Tracker.Quantile(q) would return over the same
// samples — in O(log n) per Add and O(1) per read, where Tracker re-merges
// its whole sorted view after every batch of Adds. The samples split into
// two heaps: lo holds the ceil(q·n) smallest (a max-heap, kept as a
// min-heap of negated values) and hi the rest, so the quantile is lo's
// maximum. Samples must not be NaN.
type RunningQuantile struct {
	q  float64
	lo minHeap // negated samples: the ceil(q·n) smallest
	hi minHeap
}

// NewRunningQuantile returns an empty tracker of the nearest-rank
// q-quantile, q in (0,1].
func NewRunningQuantile(q float64) RunningQuantile { return RunningQuantile{q: q} }

// Add records one sample and restores the rank split.
func (r *RunningQuantile) Add(v float64) {
	if len(r.lo) > 0 && v > -r.lo[0] {
		r.hi.push(v)
	} else {
		r.lo.push(-v)
	}
	n := len(r.lo) + len(r.hi)
	k := int(math.Ceil(r.q * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	for len(r.lo) > k {
		r.hi.push(-r.lo.pop())
	}
	for len(r.lo) < k {
		r.lo.push(-r.hi.pop())
	}
}

// Reset discards all samples, retaining the heaps' capacity.
func (r *RunningQuantile) Reset() {
	r.lo, r.hi = r.lo[:0], r.hi[:0]
}

// Count returns the number of recorded samples.
func (r *RunningQuantile) Count() int { return len(r.lo) + len(r.hi) }

// Value returns the current q-quantile, or 0 with no samples.
func (r *RunningQuantile) Value() float64 {
	if len(r.lo) == 0 {
		return 0
	}
	return -r.lo[0]
}

// minHeap is a binary min-heap of float64s, written out by hand so that
// pushes do not box each sample into an interface as container/heap would.
type minHeap []float64

func (h *minHeap) push(v float64) {
	s := append(*h, v)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(v < s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = v
	*h = s
}

func (h *minHeap) pop() float64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1] < s[c] {
				c++
			}
			if !(s[c] < last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}

// Window is a sliding-window tail-latency monitor: it retains samples whose
// timestamp lies within the last span seconds and answers percentile
// queries over that window. TimeTrader's 5-second feedback loop and the
// surge controller's tail signal are built on it.
//
// Every read takes the query time and evicts samples older than span as
// of then, so a quiet gap (no Adds) never leaves stale samples in an
// answer.
type Window struct {
	span  float64
	times []float64
	vals  []float64
	// scratch is the retained sort buffer of QuantileAtOr, reused across
	// queries so the per-query copy+sort allocates nothing in steady
	// state.
	scratch []float64
}

// NewWindow returns a monitor spanning span seconds.
func NewWindow(span float64) *Window { return &Window{span: span} }

// Add records a sample observed at time now. Samples must arrive in
// non-decreasing time order (simulation time is monotone).
func (w *Window) Add(now, v float64) {
	w.times = append(w.times, now)
	w.vals = append(w.vals, v)
	w.evict(now)
}

func (w *Window) evict(now float64) {
	cut := now - w.span
	i := 0
	for i < len(w.times) && w.times[i] < cut {
		i++
	}
	if i > 0 {
		w.times = w.times[i:]
		w.vals = w.vals[i:]
	}
}

// CountAt evicts stale samples as of now, then counts.
func (w *Window) CountAt(now float64) int {
	w.evict(now)
	return len(w.vals)
}

// QuantileAtOr evicts stale samples as of now, then returns the
// nearest-rank q-quantile over the rest — or the given sentinel when the
// window holds no samples or q is not a usable quantile (NaN, or outside
// (0,1]). Control loops query windows that eviction may have just
// emptied; a defined sentinel keeps NaN/garbage out of the control
// decision (pick a sentinel on the safe side of the threshold being
// tested).
func (w *Window) QuantileAtOr(now, q, sentinel float64) float64 {
	w.evict(now)
	if len(w.vals) == 0 || math.IsNaN(q) || q <= 0 || q > 1 {
		return sentinel
	}
	s := append(w.scratch[:0], w.vals...)
	sort.Float64s(s)
	w.scratch = s
	return s[int(math.Ceil(q*float64(len(s))))-1]
}

// Series records (time, value) pairs, e.g. total system power at one-minute
// granularity for the Fig 15 reproduction.
type Series struct {
	T []float64
	V []float64
}

// Add appends a point.
func (s *Series) Add(t, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.T) }

// Mean returns the mean of the values, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// Min returns the smallest value, or 0 if empty.
func (s *Series) Min() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest value, or 0 if empty.
func (s *Series) Max() float64 {
	if len(s.V) == 0 {
		return 0
	}
	m := s.V[0]
	for _, v := range s.V[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
