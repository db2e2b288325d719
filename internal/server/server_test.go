package server

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"eprons/internal/power"
	"eprons/internal/sim"
)

// fixedPolicy always returns the same frequency.
type fixedPolicy struct{ f float64 }

func (p fixedPolicy) Name() string { return "fixed" }
func (p fixedPolicy) OnDecision(now float64, cur *Request, queue []*Request) float64 {
	return p.f
}
func (p fixedPolicy) OnComplete(now float64, r *Request) {}

// scriptPolicy returns frequencies from a list, sticking at the last.
type scriptPolicy struct {
	freqs []float64
	i     int
}

func (p *scriptPolicy) Name() string { return "script" }
func (p *scriptPolicy) OnDecision(now float64, cur *Request, queue []*Request) float64 {
	f := p.freqs[p.i]
	if p.i < len(p.freqs)-1 {
		p.i++
	}
	return f
}
func (p *scriptPolicy) OnComplete(now float64, r *Request) {}

func newServer(t *testing.T, eng *sim.Engine, cores int, alpha float64, factory func(int) Policy) *Server {
	t.Helper()
	s, err := New(eng, Config{Cores: cores, Alpha: alpha, FMaxGHz: power.FMaxGHz, PolicyFactory: factory})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	eng := sim.New()
	fac := func(int) Policy { return fixedPolicy{2.7} }
	if _, err := New(eng, Config{Cores: 0, Alpha: 0.9, FMaxGHz: 2.7, PolicyFactory: fac}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := New(eng, Config{Cores: 1, Alpha: 2, FMaxGHz: 2.7, PolicyFactory: fac}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := New(eng, Config{Cores: 1, Alpha: 0.9, FMaxGHz: 0, PolicyFactory: fac}); err == nil {
		t.Fatal("zero fmax accepted")
	}
	if _, err := New(eng, Config{Cores: 1, Alpha: 0.9, FMaxGHz: 2.7}); err == nil {
		t.Fatal("nil factory accepted")
	}
}

func TestSingleRequestAtMaxFreq(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 1, 0.9, func(int) Policy { return fixedPolicy{power.FMaxGHz} })
	var finish float64
	s.OnComplete = func(r *Request, at float64) { finish = at }
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 4e-3, ServerDeadline: 1, SlackDeadline: 1})
	eng.RunAll()
	// Stretch at fmax is exactly 1.
	if math.Abs(finish-4e-3) > 1e-12 {
		t.Fatalf("finish %g, want 4ms", finish)
	}
	if s.Stats().Completed != 1 || s.Stats().MissRate() != 0 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestStretchAtMinFreq(t *testing.T) {
	eng := sim.New()
	alpha := 0.9
	s := newServer(t, eng, 1, alpha, func(int) Policy { return fixedPolicy{power.FMinGHz} })
	var finish float64
	s.OnComplete = func(r *Request, at float64) { finish = at }
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 4e-3, ServerDeadline: 1, SlackDeadline: 1})
	eng.RunAll()
	want := 4e-3 * Stretch(alpha, power.FMaxGHz, power.FMinGHz)
	if math.Abs(finish-want) > 1e-12 {
		t.Fatalf("finish %g, want %g", finish, want)
	}
	if want <= 4e-3 {
		t.Fatal("stretch must slow the request")
	}
}

func TestStretchFormula(t *testing.T) {
	// α=1: pure frequency scaling; α=0: frequency-independent.
	if got := Stretch(1, 2.7, 1.35); math.Abs(got-2) > 1e-12 {
		t.Fatalf("stretch %g, want 2", got)
	}
	if got := Stretch(0, 2.7, 1.2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("stretch %g, want 1", got)
	}
}

func TestMidServiceFrequencyChange(t *testing.T) {
	// A second arrival triggers a decision mid-service; the scripted
	// policy switches from fmax to fmin at that point. With α=1, base
	// work W=4ms: 1ms runs at 2.7GHz (consumes 1ms base), the remaining
	// 3ms base stretches by 2.7/1.2 = 2.25 → finish at 1ms + 6.75ms.
	eng := sim.New()
	s := newServer(t, eng, 1, 1.0, func(int) Policy {
		return &scriptPolicy{freqs: []float64{power.FMaxGHz, power.FMinGHz}}
	})
	var finishes []float64
	s.OnComplete = func(r *Request, at float64) { finishes = append(finishes, at) }
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 4e-3, ServerDeadline: 1, SlackDeadline: 1})
	eng.Schedule(1e-3, func() {
		s.Enqueue(&Request{ID: 2, Arrival: 1e-3, BaseServiceS: 1e-3, ServerDeadline: 1, SlackDeadline: 1})
	})
	eng.RunAll()
	want := 1e-3 + 3e-3*2.7/1.2
	if math.Abs(finishes[0]-want) > 1e-9 {
		t.Fatalf("first finish %g, want %g", finishes[0], want)
	}
}

func TestQueueingFIFO(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 1, 0.9, func(int) Policy { return fixedPolicy{power.FMaxGHz} })
	var order []int64
	s.OnComplete = func(r *Request, at float64) { order = append(order, r.ID) }
	for i := int64(1); i <= 3; i++ {
		s.Enqueue(&Request{ID: i, Arrival: 0, BaseServiceS: 1e-3, ServerDeadline: 1, SlackDeadline: 1})
	}
	if s.QueueLen() != 3 {
		t.Fatalf("queue length %d", s.QueueLen())
	}
	eng.RunAll()
	for i, id := range order {
		if id != int64(i+1) {
			t.Fatalf("completion order %v", order)
		}
	}
}

// reversePolicy reverses the waiting window in place whenever the core is
// about to start a request, so the newest waiting request goes first.
type reversePolicy struct{}

func (reversePolicy) Name() string { return "reverse" }
func (reversePolicy) OnDecision(now float64, cur *Request, queue []*Request) float64 {
	if cur == nil {
		slices.Reverse(queue)
	}
	return power.FMaxGHz
}
func (reversePolicy) OnComplete(now float64, r *Request) {}

// TestQueueWindowReuse: the core's FIFO serves from a window over one
// backing array. Arrivals that land while earlier requests are in service
// slide the window down instead of regrowing it, the order holds, a
// policy's in-place reordering of the window is what gets served, and
// once the array has grown a busy period allocates nothing.
func TestQueueWindowReuse(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy Policy
		want   []int64
	}{
		// Request 1 starts at once and 2..6 wait; 7..9 arrive at 2.5 ms,
		// after 1 and a second request have left the window, and the last
		// of them finds the array full with its head advanced.
		{"fifo", fixedPolicy{power.FMaxGHz}, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}},
		// Each start reverses the window: 6 of [2..6], 2 of [5 4 3 2],
		// 9 of [3 4 5 7 8 9], 3 of [8 7 5 4 3], and so on.
		{"reordered", reversePolicy{}, []int64{1, 6, 2, 9, 3, 8, 4, 7, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			s := newServer(t, eng, 1, 0.9, func(int) Policy { return tc.policy })
			var order []int64
			s.OnComplete = func(r *Request, at float64) { order = append(order, r.ID) }
			reqs := make([]Request, 9)
			burst := func(from, to int) {
				for i := from; i < to; i++ {
					reqs[i] = Request{ID: int64(i + 1), Arrival: eng.Now(), BaseServiceS: 1e-3, ServerDeadline: 1, SlackDeadline: 1}
					s.Enqueue(&reqs[i])
				}
			}
			burst(0, 6)
			eng.Schedule(2.5e-3, func() { burst(6, 9) })
			eng.RunAll()
			if !slices.Equal(order, tc.want) {
				t.Fatalf("completion order %v, want %v", order, tc.want)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				order = order[:0]
				burst(0, 6)
				eng.Schedule(eng.Now()+2.5e-3, func() { burst(6, 9) })
				eng.RunAll()
			}); allocs > 1 {
				t.Errorf("a warm busy period allocates %.1f, want at most the scheduled closure", allocs)
			}
		})
	}
}

func TestJoinShortestQueue(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 4, 0.9, func(int) Policy { return fixedPolicy{power.FMaxGHz} })
	for i := int64(0); i < 4; i++ {
		s.Enqueue(&Request{ID: i, Arrival: 0, BaseServiceS: 1e-3, ServerDeadline: 1, SlackDeadline: 1})
	}
	// All four requests run in parallel: everything finishes at 1ms.
	var last float64
	s.OnComplete = func(r *Request, at float64) { last = at }
	eng.RunAll()
	if math.Abs(last-1e-3) > 1e-12 {
		t.Fatalf("last finish %g, want 1ms (parallel dispatch)", last)
	}
}

func TestDeadlineMissCounting(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 1, 0.9, func(int) Policy { return fixedPolicy{power.FMaxGHz} })
	// Server deadline in the past at completion; slack deadline generous.
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 2e-3, ServerDeadline: 1e-3, SlackDeadline: 1})
	eng.RunAll()
	st := s.Stats()
	if st.ServerMisses != 1 || st.SlackMisses != 0 {
		t.Fatalf("misses server=%d slack=%d", st.ServerMisses, st.SlackMisses)
	}
	if st.ServerMissRate() != 1 || st.MissRate() != 0 {
		t.Fatalf("rates %g %g", st.ServerMissRate(), st.MissRate())
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 1, 0.9, func(int) Policy { return fixedPolicy{power.FMaxGHz} })
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 10e-3, ServerDeadline: 1, SlackDeadline: 1})
	eng.RunAll()
	eng.Run(20e-3) // advance the clock to 20ms total
	// 10ms active at CoreMaxW + 10ms idle at CoreIdleW.
	want := power.CoreMaxW*10e-3 + power.CoreIdleW*10e-3
	if got := s.CPUEnergyJ(20e-3); math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy %g, want %g", got, want)
	}
	wantP := want / 20e-3
	if got := s.CPUPowerW(0, 20e-3); math.Abs(got-wantP) > 1e-9 {
		t.Fatalf("power %g, want %g", got, wantP)
	}
	if got := s.TotalPowerW(0, 20e-3); math.Abs(got-wantP-power.ServerStaticW) > 1e-9 {
		t.Fatalf("total power %g", got)
	}
}

func TestUtilizationMeasure(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 2, 0.9, func(int) Policy { return fixedPolicy{power.FMaxGHz} })
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 5e-3, ServerDeadline: 1, SlackDeadline: 1})
	eng.RunAll()
	eng.Run(10e-3)
	// 5ms of base work over 2 cores × 10ms = 0.25.
	if got := s.Utilization(10e-3); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("utilization %g, want 0.25", got)
	}
}

func TestRateForUtilization(t *testing.T) {
	if got := RateForUtilization(0.3, 12, 4e-3); math.Abs(got-900) > 1e-9 {
		t.Fatalf("rate %g, want 900", got)
	}
	if RateForUtilization(0.3, 12, 0) != 0 {
		t.Fatal("zero service time must give 0")
	}
}

// Property: total busy base-seconds equals the sum of enqueued service
// times once everything completes, for any request set and any scripted
// frequency sequence.
func TestQuickWorkConservation(t *testing.T) {
	f := func(sizes []uint8, freqSeed uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		eng := sim.New()
		grid := power.FreqGrid()
		s, err := New(eng, Config{Cores: 2, Alpha: 0.85, FMaxGHz: power.FMaxGHz, PolicyFactory: func(i int) Policy {
			// Deterministic pseudo-random frequency per decision.
			seq := make([]float64, 16)
			x := int(freqSeed) + i
			for j := range seq {
				x = (x*31 + 7) % 16
				seq[j] = grid[x]
			}
			return &scriptPolicy{freqs: seq}
		}})
		if err != nil {
			return false
		}
		total := 0.0
		for i, sz := range sizes {
			base := (float64(sz) + 1) * 1e-4
			total += base
			s.Enqueue(&Request{ID: int64(i), Arrival: 0, BaseServiceS: base, ServerDeadline: 10, SlackDeadline: 10})
		}
		eng.RunAll()
		st := s.Stats()
		return st.Completed == len(sizes) && math.Abs(st.BusyBaseSeconds-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: completion time is never before the best-case service time
// (base at fmax), and latency never negative.
func TestQuickLatencyBound(t *testing.T) {
	f := func(sz uint8) bool {
		eng := sim.New()
		s, err := New(eng, Config{Cores: 1, Alpha: 0.9, FMaxGHz: power.FMaxGHz, PolicyFactory: func(int) Policy { return fixedPolicy{power.FMaxGHz} }})
		if err != nil {
			return false
		}
		base := (float64(sz) + 1) * 1e-4
		var finish float64
		s.OnComplete = func(r *Request, at float64) { finish = at }
		s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: base, ServerDeadline: 10, SlackDeadline: 10})
		eng.RunAll()
		return finish >= base-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFreqResidency(t *testing.T) {
	eng := sim.New()
	s := newServer(t, eng, 1, 0.9, func(int) Policy {
		return &scriptPolicy{freqs: []float64{power.FMaxGHz, power.FMinGHz}}
	})
	s.Enqueue(&Request{ID: 1, Arrival: 0, BaseServiceS: 4e-3, ServerDeadline: 1, SlackDeadline: 1})
	eng.Schedule(1e-3, func() {
		s.Enqueue(&Request{ID: 2, Arrival: 1e-3, BaseServiceS: 1e-3, ServerDeadline: 1, SlackDeadline: 1})
	})
	eng.RunAll()
	res := s.FreqResidency()
	// 1 ms at fmax, then the rest at fmin (both requests).
	if math.Abs(res[power.FMaxGHz]-1e-3) > 1e-9 {
		t.Fatalf("fmax residency %g, want 1ms (%v)", res[power.FMaxGHz], res)
	}
	if res[power.FMinGHz] <= 0 {
		t.Fatalf("no fmin residency: %v", res)
	}
	// Total busy residency equals total wall busy time.
	total := 0.0
	for _, v := range res {
		total += v
	}
	wallBusy := 1e-3 + (4e-3-1e-3/ExpectedStretch(0.9, power.FMaxGHz, power.FMaxGHz))*ExpectedStretch(0.9, power.FMaxGHz, power.FMinGHz) + 1e-3*ExpectedStretch(0.9, power.FMaxGHz, power.FMinGHz)
	if math.Abs(total-wallBusy) > 1e-9 {
		t.Fatalf("residency total %g, want %g", total, wallBusy)
	}
}
