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
// Schedule, Cancel and Run, and requires the exact same firing sequence and
// the exact same Cancel return values.
func TestPopOrderEquivalenceFuzz(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := New()
		ref := newRefEngine()
		var gotE, gotR []firing
		var idsE []EventID
		var idsR []int64
		label := 0
		for op := 0; op < 400; op++ {
			switch k := r.Intn(10); {
			case k < 6: // schedule (coarse times force (time, seq) ties)
				delta := float64(r.Intn(8)) * 0.25
				lb := label
				label++
				idsE = append(idsE, e.Schedule(e.Now()+delta, func() {
					gotE = append(gotE, firing{e.Now(), lb})
				}))
				idsR = append(idsR, ref.Schedule(ref.Now()+delta, func() {
					gotR = append(gotR, firing{ref.Now(), lb})
				}))
			case k < 8: // cancel a random handle (live, fired or stale)
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
			}
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
// seqs reserved now and handed to ScheduleSeq later by the test loop, and
// callbacks that schedule a follower under a seq reserved when they were
// themselves scheduled (netsim's departure-queue pattern). The reference
// heap gets the same seqs; both must fire the same (time, seq) sequence,
// and the arena's invariants must hold mid-run and at drain.
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
		var fireE func(seq int64, chain *reservation) func()
		fireE = func(seq int64, chain *reservation) func() {
			return func() {
				gotE = append(gotE, fired{e.Now(), seq})
				if chain != nil {
					e.ScheduleSeq(math.Max(chain.at, e.Now()), chain.seq, fireE(chain.seq, nil))
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
			idsE = append(idsE, e.ScheduleSeq(at, h.seq, fireE(h.seq, nil)))
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
			case k < 9: // hand a held seq to ScheduleSeq (clamped to now)
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

// TestScheduleSeqPanics: a reserved seq scheduled in the past, and a seq
// the engine never issued, both panic like Schedule in the past.
func TestScheduleSeqPanics(t *testing.T) {
	cases := []struct {
		name string
		run  func(e *Engine)
	}{
		{"past", func(e *Engine) {
			seq := e.ReserveSeq()
			e.Schedule(5, func() {})
			e.Run(10)
			e.ScheduleSeq(1, seq, func() {})
		}},
		{"zero seq", func(e *Engine) { e.ScheduleSeq(1, 0, func() {}) }},
		{"unissued seq", func(e *Engine) {
			seq := e.ReserveSeq()
			e.ScheduleSeq(1, seq+1, func() {})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.run(New())
		})
	}
}
