package sim

import (
	"fmt"
	"math"
	"testing"
)

// popTarget is the scheduler surface a popProgram drives: the engine or
// the reference heap behind one adapter each. file and fileSeq append a
// handle that cancel addresses by its index in filing order; every event
// runs the program's fire with its label.
type popTarget interface {
	Now() float64
	Len() int
	file(d float64, lb int)
	reserve() int64
	fileSeq(at float64, seq int64, lb int)
	cancel(i int) bool
	handles() int
	Stop()
	Run(until float64)
	RunAll()
	audit() error
}

// enginePop files every third label as a plain closure and the rest as
// typed events of two kinds (reserved seqs always typed). The second
// kind's handler receives the label negated, so a dispatch to the wrong
// handler shows as a wrong label.
type enginePop struct {
	*Engine
	fire  func(lb int)
	kinds [2]Kind
	ids   []EventID
}

func newEnginePop(fire func(int)) *enginePop {
	a := &enginePop{Engine: New(), fire: fire}
	a.kinds[0] = a.Handle(func(arg int32) { fire(int(arg)) })
	a.kinds[1] = a.Handle(func(arg int32) { fire(-int(arg)) })
	return a
}

func (a *enginePop) typed(lb int) (Kind, int32) {
	if lb%3 == 2 {
		return a.kinds[1], int32(-lb)
	}
	return a.kinds[0], int32(lb)
}

func (a *enginePop) file(d float64, lb int) {
	if lb%3 == 0 {
		a.ids = append(a.ids, a.Schedule(a.Now()+d, func() { a.fire(lb) }))
		return
	}
	kind, arg := a.typed(lb)
	a.ids = append(a.ids, a.AfterKind(d, kind, arg))
}

func (a *enginePop) reserve() int64 { return a.ReserveSeq() }

func (a *enginePop) fileSeq(at float64, seq int64, lb int) {
	kind, arg := a.typed(lb)
	a.ids = append(a.ids, a.ScheduleKindSeq(at, seq, kind, arg))
}

func (a *enginePop) cancel(i int) bool { return a.Cancel(a.ids[i]) }
func (a *enginePop) handles() int      { return len(a.ids) }
func (a *enginePop) audit() error      { return a.AuditInvariants() }

// refPop runs every event as a closure on the reference heap.
type refPop struct {
	*refEngine
	fire func(lb int)
	ids  []int64
}

func (a *refPop) Len() int { return len(a.pending) }

func (a *refPop) file(d float64, lb int) {
	a.ids = append(a.ids, a.Schedule(a.Now()+d, func() { a.fire(lb) }))
}

func (a *refPop) fileSeq(at float64, seq int64, lb int) {
	a.ids = append(a.ids, a.ScheduleSeq(at, seq, func() { a.fire(lb) }))
}

func (a *refPop) reserve() int64    { return a.ReserveSeq() }
func (a *refPop) cancel(i int) bool { return a.Cancel(a.ids[i]) }
func (a *refPop) handles() int      { return len(a.ids) }
func (a *refPop) audit() error      { return nil }

// popProgram reads a fuzz input as a scheduler program. Top-level
// operations come from the input in order; what an event's handler does
// is drawn from the input by the event's label, so both schedulers run
// the same handlers whatever order they fire them in.
type popProgram struct {
	data     []byte
	s        popTarget
	log      []string // firings, Cancel results, clocks and live counts
	labels   int
	held     []popHeld
	draining bool // no Stop from handlers once the final drain starts
	err      error
}

type popHeld struct {
	at  float64
	seq int64
	lb  int
}

// maxLabels bounds the events one program files, since handlers file
// successors (and events at +Inf keep filing at +Inf).
const maxLabels = 600

func (p *popProgram) byteAt(i int) int { return int(p.data[i%len(p.data)]) }

// delta maps a byte to a delay: 0 (a tie with the firing event), a few
// coarse steps that force (time, seq) ties, or +Inf.
func delta(b int) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 7:
		return math.Inf(1)
	default:
		return float64(b%8) * 0.25
	}
}

func (p *popProgram) file(d float64) {
	p.labels++
	p.s.file(d, p.labels)
}

func (p *popProgram) auditf(where string) {
	if err := p.s.audit(); err != nil && p.err == nil {
		p.err = fmt.Errorf("%s: %w", where, err)
	}
}

// fire is every event's handler: it logs the firing, may audit (with the
// fired event's root still in place, then after filing), cancels one of
// the recent handles, files 0–3 successors, and may Stop the run.
func (p *popProgram) fire(lb int) {
	p.log = append(p.log, fmt.Sprintf("fire %d at %g", lb, p.s.Now()))
	act := p.byteAt(7*lb + 3)
	if act&1 != 0 {
		p.auditf(fmt.Sprintf("handler %d before filing", lb))
	}
	if act&2 != 0 && p.s.handles() > 0 {
		n := p.s.handles()
		i := n - 1 - p.byteAt(7*lb+4)%min(n, 16)
		p.log = append(p.log, fmt.Sprintf("cancel %d = %v", i, p.s.cancel(i)))
	}
	for k := 0; k < act>>2&3 && p.labels < maxLabels; k++ {
		p.file(delta(p.byteAt(7*lb + 5 + k)))
	}
	if act&1 != 0 {
		p.auditf(fmt.Sprintf("handler %d after filing", lb))
	}
	if act&0x30 == 0x30 && !p.draining {
		p.s.Stop()
	}
}

// run executes the program and returns its log.
func (p *popProgram) run() []string {
	var lastAt float64
	for pc := 0; pc+1 < len(p.data); pc += 2 {
		op, arg := p.data[pc], int(p.data[pc+1])
		switch op % 8 {
		case 0, 1: // file a new event
			d := delta(arg)
			if p.labels < maxLabels {
				lastAt = p.s.Now() + d
				p.file(d)
			}
		case 2: // reserve a seq now, file it later
			p.labels++
			p.held = append(p.held, popHeld{p.s.Now() + float64(arg%8)*0.25, p.s.reserve(), p.labels})
		case 3: // file a held seq (clamped to now)
			if len(p.held) > 0 {
				i := arg % len(p.held)
				h := p.held[i]
				p.held = append(p.held[:i], p.held[i+1:]...)
				p.s.fileSeq(math.Max(h.at, p.s.Now()), h.seq, h.lb)
			}
		case 4: // cancel any handle: pending, fired, cancelled or stale
			if n := p.s.handles(); n > 0 {
				i := arg % n
				p.log = append(p.log, fmt.Sprintf("cancel %d = %v", i, p.s.cancel(i)))
			}
		case 5: // run to a coarse time
			p.s.Run(p.s.Now() + float64(arg%4)*0.5)
		case 6: // run to exactly the time of the last event filed
			if !math.IsInf(lastAt, 1) && lastAt >= p.s.Now() {
				p.s.Run(lastAt)
			}
		default:
			p.auditf(fmt.Sprintf("op %d", pc/2))
		}
		p.log = append(p.log, fmt.Sprintf("op %d: now %g, %d live", pc/2, p.s.Now(), p.s.Len()))
	}
	for _, h := range p.held {
		p.s.fileSeq(math.Max(h.at, p.s.Now()), h.seq, h.lb)
	}
	p.draining = true
	p.s.RunAll()
	p.auditf("drain")
	p.log = append(p.log, fmt.Sprintf("drained: now %g, %d live", p.s.Now(), p.s.Len()))
	return p.log
}

// FuzzPopOrder runs the engine and the reference heap through the same
// random program (see popProgram): handlers that file 0–3 successors,
// some at now and some at +Inf; cancels from inside handlers and between
// runs; Stop inside a handler followed by a later Run; Run(until) with
// until equal to an event's time; and AuditInvariants inside handlers
// and at drain. The firings, Cancel results, clocks and live counts must
// match, and every audit must pass.
func FuzzPopOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 1, 7, 2, 5, 5, 2, 3, 0, 4, 1, 6, 0, 7, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 1, 0x3f, 0x3f, 5, 3, 6, 0, 3, 1, 2, 2})
	f.Add([]byte("stop, run, cancel and audit inside handlers; ties at now and +Inf"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		pe := &popProgram{data: data}
		eng := newEnginePop(pe.fire)
		pe.s = eng
		pr := &popProgram{data: data}
		pr.s = &refPop{refEngine: newRefEngine(), fire: pr.fire}
		gotE, gotR := pe.run(), pr.run()
		if pe.err != nil {
			t.Fatal(pe.err)
		}
		for i := range min(len(gotE), len(gotR)) {
			if gotE[i] != gotR[i] {
				t.Fatalf("step %d: engine %q, reference %q", i, gotE[i], gotR[i])
			}
		}
		if len(gotE) != len(gotR) {
			t.Fatalf("engine logged %d steps, reference %d", len(gotE), len(gotR))
		}
		if eng.Len() != 0 || eng.hn != 0 {
			t.Fatalf("after drain: %d live, %d heap entries", eng.Len(), eng.hn)
		}
	})
}
