package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineScheduleRun measures the event hot path: schedule 100k
// events (every 4th cancelled), then drain. The engine is reused across
// iterations so the event free-list (and the heap's backing array) can do
// its job; allocs/op is the headline metric. One round before the timer
// grows the engine to its peak, so B/op counts what a round allocates and
// not a share of the page growth that depends on b.N.
func BenchmarkEngineScheduleRun(b *testing.B) {
	const events = 100_000
	e := New()
	sink := 0
	round := func() {
		base := e.Now()
		ids := make([]EventID, 0, events/4)
		for j := 0; j < events; j++ {
			id := e.Schedule(base+float64(j%97)*1e-6, func() { sink++ })
			if j%4 == 0 {
				ids = append(ids, id)
			}
		}
		for _, id := range ids {
			e.Cancel(id)
		}
		e.RunAll()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	_ = sink
}

// BenchmarkEngineCancelHeavy measures the timeout pattern: nearly every
// scheduled event is cancelled before it fires (the cluster arms a timeout
// per sub-query and disarms it on reply). Cancellation cost — not pop cost —
// dominates here. Like BenchmarkEngineScheduleRun, it runs one round
// before the timer so B/op does not depend on b.N.
func BenchmarkEngineCancelHeavy(b *testing.B) {
	const events = 100_000
	e := New()
	sink := 0
	ids := make([]EventID, 0, events)
	round := func() {
		base := e.Now()
		ids = ids[:0]
		for j := 0; j < events; j++ {
			id := e.Schedule(base+float64(j%97)*1e-6, func() { sink++ })
			ids = append(ids, id)
		}
		for j, id := range ids {
			if j%10 != 0 { // cancel 90%
				e.Cancel(id)
			}
		}
		e.RunAll()
	}
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	_ = sink
}

// BenchmarkEngineAfterChain measures the self-rescheduling pattern every
// arrival process in the repo uses: one live event that re-arms itself.
func BenchmarkEngineAfterChain(b *testing.B) {
	e := New()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1e-6, tick)
		}
	}
	e.After(1e-6, tick)
	e.RunAll()
}

// BenchmarkEngineHold measures the packet plane's steady state with the
// classic hold model: 300 live typed events, each of whose firings files
// one successor at an exponential delay, so every op is one pop and one
// push on a heap of constant size. The delays are drawn, the heap filled
// and a warm-up of ten firings per event run before the timer starts.
func BenchmarkEngineHold(b *testing.B) {
	const live = 300
	r := rand.New(rand.NewSource(1))
	delays := make([]float64, 1<<12)
	for i := range delays {
		delays[i] = r.ExpFloat64() * 1e-6
	}
	e := New()
	var kind Kind
	fired, stopAt := 0, 10*live
	kind = e.Handle(func(arg int32) {
		fired++
		e.AfterKind(delays[fired&(len(delays)-1)], kind, arg)
		if fired == stopAt {
			e.Stop()
		}
	})
	for i := 0; i < live; i++ {
		e.AfterKind(delays[i], kind, int32(i))
	}
	e.RunAll()
	b.ReportAllocs()
	b.ResetTimer()
	stopAt = fired + b.N
	e.RunAll()
}
