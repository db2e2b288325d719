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
//   - The priority queue is a 4-ary array heap of small inline entries
//     (key, seq, slot) ordered by (time, seq) — no interfaces, no
//     container/heap boxing, and a shallower tree than a binary heap. The
//     (time, seq) order is a strict total order (seq is unique), so pop
//     order is independent of heap arity: this is the pop-order contract
//     that keeps figure outputs bit-identical across scheduler rewrites.
//   - The key is math.Float64bits(time), which orders like the time for
//     every time ≥ +0 (scheduling rejects NaN and maps −0 to +0), so
//     (key, seq) compares as one 128-bit unsigned number: the borrow out
//     of two bits.Sub64, no branch. Sift-down loads a node's four
//     children and picks the least by a branch-free tournament, pair
//     (0,1), pair (2,3), then the winners; three greatest-key sentinels
//     past the end of the heap keep every child group whole.
//   - Pop and push are fused: a fired event's entry stays at the root
//     while its handler runs, and the handler's first Schedule takes its
//     place and sifts down, so the common hop costs one sift. Otherwise
//     the root goes before the next pop, by the same sift-down of the
//     last leaf.
//   - Heap and arena are flat slices that grow by doubling.
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
	"math/bits"

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

// heapEntry is one 4-ary heap element: the full ordering key (tk is
// math.Float64bits of the time) plus the arena slot it resolves to. arg is
// a typed event's handler argument; it fills what would otherwise be
// padding.
type heapEntry struct {
	tk   uint64
	seq  uint64
	slot int32
	arg  int32
}

// tail fills the tailLen entries past the heap's end. Its key is above
// every real one (+Inf is 0x7ff0…), so it never wins a tournament.
var tail = heapEntry{tk: math.MaxUint64, seq: math.MaxUint64}

const tailLen = 3

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use with the clock at t=0.
type Engine struct {
	// heap holds the hn heap entries, then tailLen sentinels (nil until
	// the first Schedule). free recycles slots of the events arena.
	heap   []heapEntry
	hn     int
	events []event
	free   []int32
	// handlers[k-1] runs the typed events of Kind k.
	handlers []func(int32)
	now      float64
	seq      int64
	live     int
	stopped  bool
	// dead marks heap[0] as a fired event's entry, left for the handler's
	// first Schedule to take over (the fused pop-and-push).
	dead bool
	// Processed counts events executed so far (skipping cancelled ones).
	Processed int64
}

// New returns an engine with the clock at t=0.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Len returns the exact number of live scheduled events. Lazily-cancelled
// entries still sitting in the heap do not count, and neither do events a
// caller holds outside the heap under a reserved seq (see ReserveSeq).
func (e *Engine) Len() int { return e.live }

// before returns 1 if key (at, as) orders before (bt, bs), else 0: the
// borrow out of the 128-bit subtraction at:as − bt:bs.
func before(at, as, bt, bs uint64) uint64 {
	_, b := bits.Sub64(as, bs, 0)
	_, b = bits.Sub64(at, bt, b)
	return b
}

// pick returns x if c is 0 and y if c is 1, without a branch.
func pick(c, x, y uint64) uint64 { return x ^ (x^y)&-c }

// less orders heap entries by (time, seq).
func less(a, b heapEntry) bool { return before(a.tk, a.seq, b.tk, b.seq) != 0 }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// or at NaN panics: it always indicates a modelling bug, and silently
// reordering time would corrupt every downstream measurement. −0 is filed
// as +0.
//
// The dominant "at = now+delta, never cancelled" case costs one free-list
// pop and a heap append whose sift-up usually stops after one comparison,
// or, as a handler's first schedule, one sift-down from the fired root; no
// map writes and, once the arena matches the peak depth, no allocations.
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
// ordered no later than it must be in the heap. Scheduling in the past or
// at NaN, or under a seq the engine never issued, panics.
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
	if !(at >= e.now) { // also catches NaN
		panic(fmt.Sprintf("sim: schedule at %g before now %g", at, e.now))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		slot = int32(len(e.events))
		e.events = append(xslice.GrowDoubling(e.events), event{gen: 1})
	}
	ev := &e.events[slot]
	ev.fn = fn
	ev.kind = kind
	ev.state = stateLive
	e.live++
	// The clock is never below +0, so clearing the sign bit maps −0 to +0.
	x := heapEntry{tk: math.Float64bits(at) &^ (1 << 63), seq: uint64(seq), slot: slot, arg: arg}
	if e.dead {
		e.dead = false
		e.siftDown(x)
	} else {
		e.siftUp(x)
	}
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
	if slot >= int64(len(e.events)) {
		return false
	}
	ev := &e.events[slot]
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
	ev := &e.events[slot]
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

// drain is the event loop of Run and RunAll: settle the last root, skip a
// cancelled slot, else release the slot (the event may reuse it) and run
// the plain callback or the kind's handler with the entry's arg while the
// root is dead. After a handler panics, the next Schedule or Run settles.
func (e *Engine) drain(until float64) {
	e.stopped = false
	for !e.stopped {
		e.settle()
		if e.hn == 0 || math.Float64frombits(e.heap[0].tk) > until {
			break
		}
		top := e.heap[0]
		e.dead = true
		ev := &e.events[top.slot]
		if ev.state == stateCancelled {
			e.release(top.slot)
			continue
		}
		fn, kind := ev.fn, ev.kind
		e.release(top.slot)
		e.live--
		e.now = math.Float64frombits(top.tk)
		e.Processed++
		if kind != 0 {
			e.handlers[kind-1](top.arg)
		} else {
			fn()
		}
	}
	e.settle()
}

// settle removes a dead root: the last leaf sifts down from the root.
func (e *Engine) settle() {
	if !e.dead {
		return
	}
	e.dead = false
	e.hn--
	n := e.hn
	x := e.heap[n]
	e.heap[n] = tail
	e.heap = e.heap[:n+tailLen]
	if n > 0 {
		e.siftDown(x)
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
//     handler kind (typed events count as live like any other);
//   - every entry orders no earlier than its parent, no key is NaN or −0,
//     and the tailLen sentinels follow the last entry.
//
// Inside a handler the fired event's dead root is not counted, so the
// answer is the one a call between events would give. It is read-only and
// O(heap + arena); audit runs call it at drain points, not per event.
func (e *Engine) AuditInvariants() error {
	live, cancelled := 0, 0
	for slot, ev := range e.events {
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
	first := 0
	if e.dead {
		first = 1
	}
	if occupied := live + cancelled; e.hn-first != occupied {
		return fmt.Errorf("sim: heap holds %d entries, arena holds %d occupied slots", e.hn-first, occupied)
	}
	seen := make(map[int32]bool, e.hn)
	for i, h := range e.heap[:e.hn] {
		if h.tk > math.Float64bits(math.Inf(1)) {
			return fmt.Errorf("sim: heap entry %d has key %#x, a NaN or negative time", i, h.tk)
		}
		if i > 0 && less(h, e.heap[(i-1)>>2]) {
			return fmt.Errorf("sim: heap entry %d orders before its parent %d", i, (i-1)>>2)
		}
		if i < first {
			continue
		}
		if h.slot < 0 || int(h.slot) >= len(e.events) {
			return fmt.Errorf("sim: heap entry references slot %d outside arena of %d", h.slot, len(e.events))
		}
		if e.events[h.slot].state == stateFree {
			return fmt.Errorf("sim: heap entry references free slot %d", h.slot)
		}
		if seen[h.slot] {
			return fmt.Errorf("sim: heap holds two entries for slot %d", h.slot)
		}
		seen[h.slot] = true
	}
	if t := e.heap[e.hn:]; len(e.heap) > 0 && (len(t) != tailLen || t[0] != tail || t[1] != tail || t[2] != tail) {
		return fmt.Errorf("sim: the heap's %d entries are not followed by %d sentinels", e.hn, tailLen)
	}
	return nil
}

// siftUp appends x at the bottom of the 4-ary heap and bubbles it up. An
// entry scheduled later than everything on its root path — the common
// now+delta case — exits after the first comparison.
func (e *Engine) siftUp(x heapEntry) {
	if len(e.heap) == 0 {
		e.heap = append(e.heap, tail, tail, tail)
	}
	e.heap = append(xslice.GrowDoubling(e.heap), tail)
	h, i := e.heap, e.hn
	e.hn++
	for i > 0 {
		p := (i - 1) >> 2
		if !less(x, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// siftDown puts x at the root in place of the entry there and sifts it
// down. At each level all four children of i (4i+1 .. 4i+4) are loaded,
// the least wins a branch-free tournament, and it moves up while it orders
// before x.
func (e *Engine) siftDown(x heapEntry) {
	h, n, i := e.heap, e.hn, 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		g := h[c : c+4 : c+4]
		t0, s0 := g[0].tk, g[0].seq
		t1, s1 := g[1].tk, g[1].seq
		t2, s2 := g[2].tk, g[2].seq
		t3, s3 := g[3].tk, g[3].seq
		a := before(t1, s1, t0, s0)
		b := before(t3, s3, t2, s2)
		ta, sa := pick(a, t0, t1), pick(a, s0, s1)
		tb, sb := pick(b, t2, t3), pick(b, s2, s3)
		w := before(tb, sb, ta, sa)
		if before(pick(w, ta, tb), pick(w, sa, sb), x.tk, x.seq) == 0 {
			break
		}
		m := c + int(pick(w, a, 2+b))
		h[i] = h[m]
		i = m
	}
	h[i] = x
}
