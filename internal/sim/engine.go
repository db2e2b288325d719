// Package sim provides the discrete-event simulation engine that underlies
// the network simulator, the server simulator and the full-system EPRONS
// runner. Time is a float64 measured in seconds. Events scheduled for the
// same instant fire in scheduling order, which keeps runs deterministic for
// a fixed seed.
//
// # Scheduler internals
//
// The engine is built for the simulator's dominant workload: millions of
// short-lived "schedule at now+delta, fire once, never cancelled" events,
// with a minority of timeout-style events that are cancelled before firing.
//
//   - Events live in a slot arena recycled through a free list, so
//     steady-state scheduling allocates nothing.
//   - The priority queue is a concrete 4-ary array heap of small inline
//     entries (time, seq, slot) ordered by (time, seq) — no interfaces, no
//     container/heap boxing, and a shallower tree than a binary heap. The
//     (time, seq) order is a strict total order (seq is unique), so pop
//     order is independent of heap arity: this is the pop-order contract
//     that keeps figure outputs bit-identical across scheduler rewrites.
//   - Both the heap and the arena are paged (fixed 4096-entry pages behind
//     a tiny index table) instead of flat slices: growing to a peak of N
//     entries allocates exactly N entries' worth of pages, where a
//     reallocating slice pays ~2× N in cumulative copy churn — material
//     when overloaded large-fabric runs hold >10⁶ in-flight events. Pages
//     are never freed; the high-water mark is the working set.
//   - EventID encodes (slot, generation) directly; Cancel resolves the
//     handle with two array reads and no map. Each slot's generation bumps
//     on every release, so stale IDs (already fired, already cancelled, or
//     belonging to a previous occupant of a recycled slot) never match.
//   - Cancellation is lazy: the heap entry stays put and is discarded when
//     popped. Only cancel-heavy workloads pay for it, and they pay O(1) per
//     cancel instead of a map write per schedule.
//   - Typed events: Handle registers a func(int32) handler once and
//     returns its Kind; AfterKind then files a (kind, arg) pair where
//     After files a func(). The arg rides in the heap entry's padding and
//     the kind in the slot's, so neither entry grows, and a caller naming
//     its objects by int32 index (netsim's packets) schedules them without
//     a closure per object. Both forms draw seqs from the one stream and
//     pop in the one (time, seq) order; Cancel and EventID work the same
//     on either.
//   - ReserveSeq and ScheduleKindSeq split AfterKind in two, so a caller
//     can hold a typed event outside the heap and file it later under the
//     seq it drew on time. netsim keeps each link direction's queued
//     packets in a FIFO list this way, with only the head in the heap;
//     the pop order is the one a plain Schedule per packet would give.
package sim

import (
	"fmt"
	"math"

	"eprons/internal/xslice"
)

// EventID identifies a scheduled event so that it can be cancelled. It
// packs the event's arena slot in the low 32 bits and the slot's generation
// in the high 32 bits; 0 is never a valid ID (generations start at 1).
type EventID int64

// Event slot states. A slot is free (on the free list), live (scheduled),
// or cancelled (awaiting lazy removal when its heap entry is popped).
const (
	stateFree uint8 = iota
	stateLive
	stateCancelled
)

// Kind names a handler registered with Handle. The zero Kind marks a plain
// func() event.
type Kind uint16

// event is one arena slot. The scheduling key (time, seq) is duplicated in
// the heap entry so comparisons never chase the arena; the slot holds the
// callback (fn, or the handler kind of a typed event) and the
// handle-validation state, in 16 bytes.
type event struct {
	fn    func()
	gen   uint32
	state uint8
	kind  Kind
}

// heapEntry is one 4-ary heap element: the full ordering key plus the arena
// slot it resolves to. Keeping the key inline makes sift comparisons a
// straight array scan with no indirection. arg is a typed event's handler
// argument; it fills what would otherwise be padding.
type heapEntry struct {
	time float64
	seq  int64
	slot int32
	arg  int32
}

// Paged-storage geometry: index i lives at page i>>pageShift, offset
// i&pageMask. 4096 entries keep a page at ~96 KB (heap) / ~64 KB (arena).
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use with the clock at t=0.
type Engine struct {
	// heap/hn and events/nslots are the paged 4-ary heap and the paged
	// slot arena (see the package comment); hn and nslots are their
	// logical lengths.
	heap   [][]heapEntry
	hn     int
	events [][]event
	nslots int
	// free recycles arena slots. Its length is bounded by the high-water
	// mark of the queue depth.
	free []int32
	// handlers holds the typed-event handlers; Kind k dispatches to
	// handlers[k-1].
	handlers []func(int32)
	now      float64
	seq      int64
	live     int
	stopped  bool
	// Processed counts events executed so far (skipping cancelled ones).
	Processed int64
}

// hat resolves heap index i to its entry.
func (e *Engine) hat(i int) *heapEntry { return &e.heap[i>>pageShift][i&pageMask] }

// eat resolves an arena slot to its event.
func (e *Engine) eat(slot int32) *event { return &e.events[slot>>pageShift][slot&pageMask] }

// New returns an engine with the clock at t=0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Len returns the exact number of live scheduled events. Lazily-cancelled
// entries still sitting in the heap do not count, and neither do events a
// caller holds outside the heap under a reserved seq (see ReserveSeq).
func (e *Engine) Len() int { return e.live }

// less orders heap entries by (time, seq): earlier time first, scheduling
// order among ties. seq is unique, so this is a strict total order.
func less(a, b heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// Schedule registers fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a modelling bug, and silently reordering time
// would corrupt every downstream measurement.
//
// The dominant "at = now+delta, never cancelled" case costs one free-list
// pop, one heap append and a sift-up that usually terminates after a single
// comparison — no map writes and, once the arena matches the peak queue
// depth, no allocations.
func (e *Engine) Schedule(at float64, fn func()) EventID {
	e.seq++
	return e.scheduleSeq(at, e.seq, fn, 0, 0)
}

// ReserveSeq draws the next sequence number without scheduling anything.
// A caller that holds an event outside the heap (netsim's per-direction
// FIFO departure queues) reserves the seq at the instant it would have
// called Schedule and later hands it to ScheduleKindSeq, so the event
// fires exactly where a plain Schedule would have put it in (time, seq)
// order.
func (e *Engine) ReserveSeq() int64 {
	e.seq++
	return e.seq
}

// Handle registers h as a typed-event handler and returns the Kind that
// AfterKind and ScheduleKindSeq file events under. A typed event carries
// only its kind and an int32 argument, so a caller that names its objects
// by index (netsim's pooled packets) schedules them without binding a
// closure per object. Register once per consumer, not per event: the
// engine keeps every handler for its lifetime.
func (e *Engine) Handle(h func(int32)) Kind {
	if h == nil {
		panic("sim: nil handler")
	}
	if len(e.handlers) == 1<<16-1 {
		panic("sim: too many typed-event handlers")
	}
	e.handlers = append(e.handlers, h)
	return Kind(len(e.handlers))
}

// AfterKind files a typed event: kind's handler runs with arg d seconds
// from now. It draws its seq exactly as After does.
func (e *Engine) AfterKind(d float64, kind Kind, arg int32) EventID {
	e.checkKind(kind)
	e.seq++
	return e.scheduleSeq(e.now+d, e.seq, nil, kind, arg)
}

// ScheduleKindSeq files a typed event under a sequence number previously
// drawn with ReserveSeq: kind's handler runs with arg at time at. Each
// reserved seq must be scheduled at most once. The caller keeps the
// pop-order contract: while the event is held outside the heap, some event
// ordered no later than it must be in the heap. Scheduling in the past, or
// under a seq the engine never issued, panics.
func (e *Engine) ScheduleKindSeq(at float64, seq int64, kind Kind, arg int32) EventID {
	if seq < 1 || seq > e.seq {
		panic(fmt.Sprintf("sim: schedule under seq %d, never reserved (last issued %d)", seq, e.seq))
	}
	e.checkKind(kind)
	return e.scheduleSeq(at, seq, nil, kind, arg)
}

func (e *Engine) checkKind(kind Kind) {
	if kind == 0 || int(kind) > len(e.handlers) {
		panic(fmt.Sprintf("sim: kind %d was never registered with Handle", kind))
	}
}

// scheduleSeq is the shared body of every scheduling call: fn for a plain
// event, or a nonzero kind and its arg for a typed one.
func (e *Engine) scheduleSeq(at float64, seq int64, fn func(), kind Kind, arg int32) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %g before now %g", at, e.now))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if e.nslots&pageMask == 0 && e.nslots>>pageShift == len(e.events) {
			e.events = append(e.events, make([]event, pageSize))
		}
		slot = int32(e.nslots)
		e.nslots++
		e.eat(slot).gen = 1
	}
	ev := e.eat(slot)
	ev.fn = fn
	ev.kind = kind
	ev.state = stateLive
	e.live++
	e.siftUp(heapEntry{time: at, seq: seq, slot: slot, arg: arg})
	return EventID(int64(ev.gen)<<32 | int64(slot))
}

// After registers fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) EventID {
	return e.Schedule(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an event that already fired
// or was already cancelled is a no-op and returns false — even if the
// event's arena slot has since been recycled for a newer event, because the
// generation stamped into the ID no longer matches the slot's.
func (e *Engine) Cancel(id EventID) bool {
	slot := int64(id) & 0xffffffff
	gen := uint32(uint64(id) >> 32)
	if slot >= int64(e.nslots) {
		return false
	}
	ev := e.eat(int32(slot))
	if ev.gen != gen || ev.state != stateLive {
		return false
	}
	// Lazy removal: mark the slot and drop the callback now (releasing
	// captured state immediately); the heap entry is discarded at pop.
	ev.state = stateCancelled
	ev.fn = nil
	e.live--
	return true
}

// release returns an arena slot to the free list and invalidates every
// outstanding EventID that pointed at it.
func (e *Engine) release(slot int32) {
	ev := e.eat(slot)
	ev.fn = nil
	ev.kind = 0
	ev.gen++
	ev.state = stateFree
	e.free = append(xslice.GrowDoubling(e.free), slot)
}

// Stop makes the current Run return after the in-flight event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in time order until the queue drains or the next
// event would fire after until. The clock is left at the time of the last
// executed event (or at until if it advanced past every event).
func (e *Engine) Run(until float64) {
	e.drain(until)
	if !e.stopped && e.now < until {
		e.now = until
	}
}

// RunAll executes every scheduled event regardless of time. It is intended
// for closed simulations that schedule a bounded number of events.
func (e *Engine) RunAll() { e.drain(math.Inf(1)) }

// drain is the event loop of Run and RunAll: pop, skip a cancelled slot,
// else release the slot (the event may Schedule and reuse it) and run the
// callback of a plain event or its kind's handler with the entry's arg.
func (e *Engine) drain(until float64) {
	e.stopped = false
	for e.hn > 0 && !e.stopped {
		top := *e.hat(0)
		if top.time > until {
			break
		}
		e.popRoot()
		ev := e.eat(top.slot)
		if ev.state == stateCancelled {
			e.release(top.slot)
			continue
		}
		fn, kind := ev.fn, ev.kind
		e.release(top.slot)
		e.live--
		e.now = top.time
		e.Processed++
		if kind != 0 {
			e.handlers[kind-1](top.arg)
		} else {
			fn()
		}
	}
}

// AuditInvariants recounts the scheduler's bookkeeping from first
// principles and returns an error if any cached aggregate disagrees — the
// cheap assertion set behind the experiment harnesses' audit mode:
//
//   - Len() (the cached live counter) must equal the number of arena slots
//     in the live state;
//   - every live or cancelled slot must be reachable from exactly one heap
//     entry (the heap can hold at most one entry per occupied slot);
//   - the heap cannot be smaller than the number of occupied slots (a
//     lazily-cancelled slot keeps its entry until popped);
//   - every live slot holds exactly one of a callback and a registered
//     handler kind (typed events count as live like any other).
//
// It is read-only and O(heap + arena); audit runs call it at drain points,
// not per event.
func (e *Engine) AuditInvariants() error {
	live, cancelled := 0, 0
	for slot := int32(0); slot < int32(e.nslots); slot++ {
		ev := e.eat(slot)
		switch ev.state {
		case stateLive:
			live++
			if typed := ev.kind != 0; typed == (ev.fn != nil) || int(ev.kind) > len(e.handlers) {
				return fmt.Errorf("sim: live slot %d holds callback=%v kind=%d (%d handlers registered)", slot, ev.fn != nil, ev.kind, len(e.handlers))
			}
		case stateCancelled:
			cancelled++
		}
	}
	if live != e.live {
		return fmt.Errorf("sim: Len() reports %d live events, arena holds %d", e.live, live)
	}
	if occupied := live + cancelled; e.hn != occupied {
		return fmt.Errorf("sim: heap holds %d entries, arena holds %d occupied slots", e.hn, occupied)
	}
	seen := make(map[int32]bool, e.hn)
	for i := 0; i < e.hn; i++ {
		h := *e.hat(i)
		if h.slot < 0 || int(h.slot) >= e.nslots {
			return fmt.Errorf("sim: heap entry references slot %d outside arena of %d", h.slot, e.nslots)
		}
		if e.eat(h.slot).state == stateFree {
			return fmt.Errorf("sim: heap entry references free slot %d", h.slot)
		}
		if seen[h.slot] {
			return fmt.Errorf("sim: heap holds two entries for slot %d", h.slot)
		}
		seen[h.slot] = true
	}
	return nil
}

// siftUp appends entry at the bottom of the 4-ary heap and bubbles it up.
// An entry scheduled later than everything on its root path — the common
// now+delta case — exits after the first comparison.
func (e *Engine) siftUp(entry heapEntry) {
	i := e.hn
	if i&pageMask == 0 && i>>pageShift == len(e.heap) {
		e.heap = append(e.heap, make([]heapEntry, pageSize))
	}
	e.hn++
	for i > 0 {
		parent := (i - 1) >> 2
		p := *e.hat(parent)
		if !less(entry, p) {
			break
		}
		*e.hat(i) = p
		i = parent
	}
	*e.hat(i) = entry
}

// popRoot removes the minimum entry, moving the last leaf to the root and
// sifting it down. Children of i are 4i+1 .. 4i+4.
func (e *Engine) popRoot() {
	n := e.hn - 1
	last := *e.hat(n)
	e.hn = n
	if n == 0 {
		return
	}
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min, minE := c, *e.hat(c)
		for j := c + 1; j < end; j++ {
			if ej := *e.hat(j); less(ej, minE) {
				min, minE = j, ej
			}
		}
		if !less(minE, last) {
			break
		}
		*e.hat(i) = minE
		i = min
	}
	*e.hat(i) = last
}
