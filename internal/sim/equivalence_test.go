package sim

import (
	"math"
	"math/rand"
	"testing"
)

// firing is one observed pop: the clock when the event ran plus the order
// label assigned at schedule time. Matching firing sequences across the
// arena heap and the reference container/heap prove the pop-order contract
// (same (time, seq) tie-break ⇒ same pop order ⇒ same figures).
type firing struct {
	t     float64
	label int
}

// TestPopOrderEquivalenceFuzz drives the 4-ary arena engine and the
// retained reference heap through identical random interleavings of
// Schedule, typed events of two kinds (AfterKind), seqs reserved now and
// filed later under ScheduleKindSeq, Cancel on plain and typed handles,
// and Run. The reference heap runs every event as a
// closure. Both must produce the exact same firing sequence and Cancel
// return values, and the arena's invariants must hold mid-run and at
// drain.
func TestPopOrderEquivalenceFuzz(t *testing.T) {
	type held struct {
		at    float64
		seq   int64
		label int
		kind  int // 1 or 2
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := New()
		ref := newRefEngine()
		var gotE, gotR []firing
		// Kind b's handler negates its label, so a typed event dispatched
		// to the wrong handler shows as a divergence.
		kinds := [3]Kind{0,
			e.Handle(func(arg int32) { gotE = append(gotE, firing{e.Now(), int(arg)}) }),
			e.Handle(func(arg int32) { gotE = append(gotE, firing{e.Now(), -int(arg)}) }),
		}
		recordR := func(kind, lb int) func() {
			if kind == 2 {
				lb = -lb
			}
			return func() { gotR = append(gotR, firing{ref.Now(), lb}) }
		}
		var idsE []EventID
		var idsR []int64
		var holds []held
		label := 1 // kind 2 negates labels, so none may be 0
		for op := 0; op < 400; op++ {
			lb := label
			switch k := r.Intn(14); {
			case k < 4: // schedule (coarse times force (time, seq) ties)
				delta := float64(r.Intn(8)) * 0.25
				label++
				idsE = append(idsE, e.Schedule(e.Now()+delta, func() {
					gotE = append(gotE, firing{e.Now(), lb})
				}))
				idsR = append(idsR, ref.Schedule(ref.Now()+delta, recordR(0, lb)))
			case k < 7: // typed event of a random kind
				delta := float64(r.Intn(8)) * 0.25
				kind := 1 + r.Intn(2)
				label++
				idsE = append(idsE, e.AfterKind(delta, kinds[kind], int32(lb)))
				idsR = append(idsR, ref.Schedule(ref.Now()+delta, recordR(kind, lb)))
			case k < 9: // reserve now, file later
				se, sr := e.ReserveSeq(), ref.ReserveSeq()
				if se != sr {
					t.Fatalf("seed %d: reserved seq %d, reference %d", seed, se, sr)
				}
				label++
				holds = append(holds, held{e.Now() + float64(r.Intn(8))*0.25, se, lb, 1 + r.Intn(2)})
			case k < 10: // file a held seq (clamped to now)
				if len(holds) == 0 {
					continue
				}
				i := r.Intn(len(holds))
				h := holds[i]
				holds = append(holds[:i], holds[i+1:]...)
				at := math.Max(h.at, e.Now())
				idsE = append(idsE, e.ScheduleKindSeq(at, h.seq, kinds[h.kind], int32(h.label)))
				idsR = append(idsR, ref.ScheduleSeq(at, h.seq, recordR(h.kind, h.label)))
			case k < 12: // cancel a random handle (live, fired or stale)
				if len(idsE) == 0 {
					continue
				}
				i := r.Intn(len(idsE))
				okE := e.Cancel(idsE[i])
				okR := ref.Cancel(idsR[i])
				if okE != okR {
					t.Fatalf("seed %d op %d: Cancel disagreement: arena=%v ref=%v", seed, op, okE, okR)
				}
			default: // advance time
				until := e.Now() + float64(r.Intn(4))*0.5
				e.Run(until)
				ref.Run(until)
				if e.Now() != ref.Now() {
					t.Fatalf("seed %d op %d: clock divergence: arena=%g ref=%g", seed, op, e.Now(), ref.Now())
				}
				if err := e.AuditInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		for _, h := range holds {
			at := math.Max(h.at, e.Now())
			e.ScheduleKindSeq(at, h.seq, kinds[h.kind], int32(h.label))
			ref.ScheduleSeq(at, h.seq, recordR(h.kind, h.label))
		}
		if err := e.AuditInvariants(); err != nil {
			t.Fatalf("seed %d: before drain: %v", seed, err)
		}
		e.RunAll()
		ref.RunAll()
		if len(gotE) != len(gotR) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotE), len(gotR))
		}
		for i := range gotE {
			if gotE[i] != gotR[i] {
				t.Fatalf("seed %d: pop %d diverged: arena=%+v ref=%+v", seed, i, gotE[i], gotR[i])
			}
		}
		if e.Len() != 0 {
			t.Fatalf("seed %d: %d events still live after RunAll", seed, e.Len())
		}
		if err := e.AuditInvariants(); err != nil {
			t.Fatalf("seed %d: at drain: %v", seed, err)
		}
	}
}

// driveNested runs one seeded workload of self-spawning, self-cancelling
// events against an abstract scheduler. Randomness is drawn in schedule and
// fire order, so two schedulers that pop identically consume identical draw
// sequences — and two that diverge produce visibly different firings.
func driveNested(seed int64, now func() float64, sched func(float64, func()), cancelNth func(int), runAll func()) []firing {
	r := rand.New(rand.NewSource(seed))
	var got []firing
	label := 0
	issued := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		lb := label
		label++
		issued++
		delta := float64(r.Intn(6)) * 0.125
		children := 0
		if depth < 3 {
			children = r.Intn(3)
		}
		doCancel := r.Intn(2) == 0
		sched(now()+delta, func() {
			got = append(got, firing{now(), lb})
			if doCancel {
				// May target a live, fired, cancelled or slot-recycled
				// handle — all four must behave identically.
				cancelNth(r.Intn(issued))
			}
			for c := 0; c < children; c++ {
				spawn(depth + 1)
			}
		})
	}
	for i := 0; i < 25; i++ {
		spawn(0)
	}
	runAll()
	return got
}

// TestPopOrderEquivalenceNested fuzzes the harder case: callbacks that
// schedule children and cancel other handles mid-run, including handles
// whose arena slots have already been recycled for newer events.
func TestPopOrderEquivalenceNested(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		e := New()
		var idsE []EventID
		gotE := driveNested(seed, e.Now,
			func(at float64, fn func()) { idsE = append(idsE, e.Schedule(at, fn)) },
			func(i int) { e.Cancel(idsE[i]) },
			e.RunAll)

		ref := newRefEngine()
		var idsR []int64
		gotR := driveNested(seed, ref.Now,
			func(at float64, fn func()) { idsR = append(idsR, ref.Schedule(at, fn)) },
			func(i int) { ref.Cancel(idsR[i]) },
			ref.RunAll)

		if len(gotE) != len(gotR) {
			t.Fatalf("seed %d: fired %d vs reference %d", seed, len(gotE), len(gotR))
		}
		for i := range gotE {
			if gotE[i] != gotR[i] {
				t.Fatalf("seed %d: pop %d diverged: arena=%+v ref=%+v", seed, i, gotE[i], gotR[i])
			}
		}
		if e.Len() != 0 {
			t.Fatalf("seed %d: %d events still live after RunAll", seed, e.Len())
		}
	}
}

// TestPopOrderEquivalenceReservedSeq extends the pop-order contract to
// reserved sequence numbers: random programs mix Schedule, Cancel, Run,
// seqs reserved now and handed to ScheduleKindSeq later by the test loop,
// and callbacks that schedule a follower under a seq reserved when they
// were themselves scheduled (netsim's departure-queue pattern). Every
// reserved-seq event is typed, with its seq as the arg; the reference
// heap files the same seqs as closures. Both must fire the same
// (time, seq) sequence, and the arena's invariants must hold mid-run and
// at drain.
func TestPopOrderEquivalenceReservedSeq(t *testing.T) {
	type fired struct {
		t   float64
		seq int64
	}
	type reservation struct {
		at  float64
		seq int64
	}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := New()
		ref := newRefEngine()
		var gotE, gotR []fired
		var idsE []EventID
		var idsR []int64
		var held []reservation
		reserve := func(at float64) reservation {
			se, sr := e.ReserveSeq(), ref.ReserveSeq()
			if se != sr {
				t.Fatalf("seed %d: reserved seq %d, reference %d", seed, se, sr)
			}
			return reservation{at: at, seq: se}
		}
		// fireE and fireR build the recording callbacks; a non-nil chain
		// is scheduled under its reserved seq when the callback fires.
		// On the arena, reserved-seq events are typed: kind records the
		// seq passed as its arg.
		kind := e.Handle(func(seq int32) { gotE = append(gotE, fired{e.Now(), int64(seq)}) })
		fireE := func(seq int64, chain *reservation) func() {
			return func() {
				gotE = append(gotE, fired{e.Now(), seq})
				if chain != nil {
					e.ScheduleKindSeq(math.Max(chain.at, e.Now()), chain.seq, kind, int32(chain.seq))
				}
			}
		}
		var fireR func(seq int64, chain *reservation) func()
		fireR = func(seq int64, chain *reservation) func() {
			return func() {
				gotR = append(gotR, fired{ref.Now(), seq})
				if chain != nil {
					ref.ScheduleSeq(math.Max(chain.at, ref.Now()), chain.seq, fireR(chain.seq, nil))
				}
			}
		}
		scheduleHeld := func(h reservation) {
			at := math.Max(h.at, e.Now())
			idsE = append(idsE, e.ScheduleKindSeq(at, h.seq, kind, int32(h.seq)))
			idsR = append(idsR, ref.ScheduleSeq(at, h.seq, fireR(h.seq, nil)))
		}
		for op := 0; op < 400; op++ {
			switch k := r.Intn(12); {
			case k < 5: // schedule (coarse times force ties), maybe chained
				at := e.Now() + float64(r.Intn(8))*0.25
				var chain *reservation
				if r.Intn(3) == 0 {
					chain = &reservation{}
				}
				seq := e.seq + 1
				idsE = append(idsE, e.Schedule(at, fireE(seq, chain)))
				idsR = append(idsR, ref.Schedule(at, fireR(seq, chain)))
				if chain != nil {
					*chain = reserve(at + float64(r.Intn(3))*0.25)
				}
			case k < 7: // reserve now, schedule later
				held = append(held, reserve(e.Now()+float64(r.Intn(8))*0.25))
			case k < 9: // hand a held seq to ScheduleKindSeq (clamped to now)
				if len(held) == 0 {
					continue
				}
				i := r.Intn(len(held))
				h := held[i]
				held = append(held[:i], held[i+1:]...)
				scheduleHeld(h)
			case k < 10: // cancel a random handle (live, fired or stale)
				if len(idsE) == 0 {
					continue
				}
				i := r.Intn(len(idsE))
				if okE, okR := e.Cancel(idsE[i]), ref.Cancel(idsR[i]); okE != okR {
					t.Fatalf("seed %d op %d: Cancel disagreement: arena=%v ref=%v", seed, op, okE, okR)
				}
			default: // advance time
				until := e.Now() + float64(r.Intn(4))*0.5
				e.Run(until)
				ref.Run(until)
				if e.Now() != ref.Now() {
					t.Fatalf("seed %d op %d: clock divergence: arena=%g ref=%g", seed, op, e.Now(), ref.Now())
				}
				if err := e.AuditInvariants(); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
		}
		for _, h := range held {
			scheduleHeld(h)
		}
		e.RunAll()
		ref.RunAll()
		if len(gotE) != len(gotR) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotE), len(gotR))
		}
		for i := range gotE {
			if gotE[i] != gotR[i] {
				t.Fatalf("seed %d: pop %d diverged: arena=%+v ref=%+v", seed, i, gotE[i], gotR[i])
			}
		}
		if e.Len() != 0 {
			t.Fatalf("seed %d: %d events still live after RunAll", seed, e.Len())
		}
		if err := e.AuditInvariants(); err != nil {
			t.Fatalf("seed %d: at drain: %v", seed, err)
		}
	}
}

// TestScheduleSeqPanics: a reserved seq filed with ScheduleKindSeq in the
// past, and a seq the engine never issued, both panic like Schedule in
// the past.
func TestScheduleSeqPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(e *Engine, k Kind)
	}{
		{"past", func(e *Engine, k Kind) {
			seq := e.ReserveSeq()
			e.Schedule(5, func() {})
			e.Run(10)
			e.ScheduleKindSeq(1, seq, k, 0)
		}},
		{"zero seq", func(e *Engine, k Kind) { e.ScheduleKindSeq(1, 0, k, 0) }},
		{"unissued seq", func(e *Engine, k Kind) {
			seq := e.ReserveSeq()
			e.ScheduleKindSeq(1, seq+1, k, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			e := New()
			c.run(e, e.Handle(func(int32) {}))
		})
	}
}
