package sim

// A retained reference implementation of the pre-overhaul scheduler —
// container/heap over boxed *refEvent entries plus a pending map — used
// only by tests to pin the pop-order contract of the 4-ary arena heap:
// for any interleaving of Schedule/ReserveSeq/Cancel/Stop/Run, with the
// arena's typed events filed here as closures (ScheduleSeq stands in for
// ScheduleKindSeq), both schedulers must fire the exact same (time, seq)
// sequence.

import "container/heap"

type refEvent struct {
	time      float64
	seq       int64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *refHeap) Push(x any) { *h = append(*h, x.(*refEvent)) }

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refEngine mirrors the Engine API closely enough for equivalence fuzzing.
type refEngine struct {
	heap    refHeap
	pending map[int64]*refEvent
	now     float64
	seq     int64
	stopped bool
}

func newRefEngine() *refEngine {
	return &refEngine{pending: make(map[int64]*refEvent)}
}

func (e *refEngine) Now() float64 { return e.now }

func (e *refEngine) Schedule(at float64, fn func()) int64 {
	e.seq++
	return e.ScheduleSeq(at, e.seq, fn)
}

func (e *refEngine) ReserveSeq() int64 {
	e.seq++
	return e.seq
}

// ScheduleSeq files fn under a seq drawn earlier with ReserveSeq; the
// returned handle is the seq itself, as for Schedule.
func (e *refEngine) ScheduleSeq(at float64, seq int64, fn func()) int64 {
	ev := &refEvent{time: at, seq: seq, fn: fn}
	heap.Push(&e.heap, ev)
	e.pending[seq] = ev
	return seq
}

func (e *refEngine) Cancel(id int64) bool {
	ev, ok := e.pending[id]
	if !ok {
		return false
	}
	ev.cancelled = true
	delete(e.pending, id)
	return true
}

// Stop makes the current Run or RunAll return after the in-flight event,
// and leaves the clock where it is, as Engine.Stop does.
func (e *refEngine) Stop() { e.stopped = true }

func (e *refEngine) Run(until float64) {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		next := e.heap[0]
		if next.time > until {
			break
		}
		heap.Pop(&e.heap)
		if next.cancelled {
			continue
		}
		delete(e.pending, next.seq)
		e.now = next.time
		next.fn()
	}
	if !e.stopped && e.now < until {
		e.now = until
	}
}

func (e *refEngine) RunAll() {
	e.stopped = false
	for len(e.heap) > 0 && !e.stopped {
		next := heap.Pop(&e.heap).(*refEvent)
		if next.cancelled {
			continue
		}
		delete(e.pending, next.seq)
		e.now = next.time
		next.fn()
	}
}
