// Package server simulates a multi-core DVFS-capable server processing
// latency-sensitive requests (paper §III and §V-A): per-core FIFO queues
// with policy-controlled ordering, a service-time model with a
// frequency-independent component (footnote 1), per-request frequency
// decisions at every arrival and departure instant, and per-core energy
// accounting.
//
// Request progress is tracked in "base seconds" — service time at the
// maximum frequency. Running at frequency f stretches base time by
//
//	s(f) = α·fmax/f + (1−α)
//
// where α is the frequency-dependent fraction of the work. A request with
// base service time t completes after t·s(f) wall seconds at constant f.
package server

import (
	"fmt"
	"math"

	"eprons/internal/power"
	"eprons/internal/sim"
)

// Request is one unit of work (a search sub-query on an ISN).
type Request struct {
	// ID is the submitter's name for the request, opaque to the server
	// and its policies; it comes back through Server.OnComplete. The
	// search cluster uses the index of the attempt record that holds it.
	ID      int64
	Arrival float64 // time the request entered the server queue
	// BaseServiceS is the drawn service time at fmax. The simulator knows
	// it; policies only know its distribution.
	BaseServiceS float64
	// ServerDeadline is the absolute deadline granted by the server-side
	// budget alone.
	ServerDeadline float64
	// SlackDeadline is ServerDeadline extended by the request's measured
	// network slack (EPRONS/Rubik+ use it; Rubik ignores it).
	SlackDeadline float64

	workDoneBase float64 // accumulated base seconds of service
}

// WorkDoneBase returns the base-seconds of service this request has
// received; policies use it to condition the remaining-work distribution.
func (r *Request) WorkDoneBase() float64 { return r.workDoneBase }

// Policy decides the core frequency. It is consulted at every request
// arrival and departure instant (the decision points of §III-B).
type Policy interface {
	Name() string
	// OnDecision returns the frequency (GHz, clamped/snapped by the core)
	// to run until the next decision. cur is the in-service request (nil
	// if the core is idle — the head of queue is about to start). The
	// policy may reorder queue in place (e.g. EDF).
	OnDecision(now float64, cur *Request, queue []*Request) float64
	// OnComplete reports a finished request for feedback-based policies.
	OnComplete(now float64, r *Request)
}

// Config parameterizes a server.
type Config struct {
	Cores int
	// Alpha is the frequency-dependent fraction of service time.
	Alpha float64
	// FMaxGHz is the frequency at which BaseServiceS is defined.
	FMaxGHz float64
	// PolicyFactory builds one policy instance per core.
	PolicyFactory func(core int) Policy

	// QueueLimit bounds the number of requests queued or in service across
	// the whole server (all cores). 0 (default) keeps the historical
	// unbounded queues. TryEnqueue rejects at the bound; Enqueue ignores it
	// (legacy callers keep their semantics).
	QueueLimit int

	// Sleep enables the DynSleep/SleepScale-style extension the paper
	// cites as the alternative server power-management family: an idle
	// core enters a deep sleep state after SleepAfterIdleS and pays
	// WakeLatencyS before the next request starts. Off by default — the
	// paper's EPRONS-Server uses DVFS only.
	Sleep bool
	// SleepAfterIdleS is the idle timeout before entering sleep
	// (default 1 ms).
	SleepAfterIdleS float64
	// WakeLatencyS is the exit latency from the sleep state
	// (default 100 µs, a package C6-style figure).
	WakeLatencyS float64
	// SleepPowerW is the per-core power while asleep (default 0.05 W).
	SleepPowerW float64
}

// DefaultConfig uses the paper's 12-core CPU and α=0.9.
func DefaultConfig(factory func(core int) Policy) Config {
	return Config{Cores: power.CoresPerServer, Alpha: 0.9, FMaxGHz: power.FMaxGHz, PolicyFactory: factory}
}

// Stretch returns s(f), the wall-seconds per base-second at frequency f.
func Stretch(alpha, fmax, f float64) float64 {
	return alpha*fmax/f + (1 - alpha)
}

// Stats aggregates completed-request metrics for a server.
type Stats struct {
	Completed       int
	SlackMisses     int // finished after SlackDeadline
	ServerMisses    int // finished after ServerDeadline
	BusyBaseSeconds float64
	// Rejected counts requests refused by TryEnqueue at the queue bound
	// (Config.QueueLimit) — the server-side backstop of admission control.
	Rejected int
	// PeakQueue is the high-water mark of QueueLen — under overload with
	// no admission control it grows without bound, which is exactly the
	// failure mode the overload sweep's baseline curve demonstrates.
	PeakQueue int
}

// FreqResidency reports how many busy seconds the server's cores spent at
// each DVFS step — the P-state histogram that explains a policy's power
// draw.
func (s *Server) FreqResidency() map[float64]float64 {
	out := make(map[float64]float64)
	for _, c := range s.cores {
		for f, t := range c.residency {
			out[f] += t
		}
	}
	return out
}

// Server is a set of cores fed by join-shortest-queue dispatch.
type Server struct {
	Cfg   Config
	cores []*core
	stats Stats
	// OnComplete, if set, is called for every finished request.
	OnComplete func(r *Request, finish float64)
}

// core is a single execution unit with its own queue and policy.
type core struct {
	srv    *Server
	eng    *sim.Engine
	id     int
	policy Policy

	// queue[head:] holds the waiting requests in FIFO order; the policy
	// sees that window and may reorder it in place. Starting service
	// advances head over the same backing array, which is reused: head
	// resets when the queue empties, and an append into a full array
	// first slides the window down to index 0.
	queue   []*Request
	head    int
	cur     *Request
	freq    float64
	lastT   float64 // last time progress was accounted
	compEv  sim.EventID
	hasComp bool
	acc     *power.Accumulator
	// The engine callbacks, bound once so scheduling them allocates
	// nothing: completion of the in-service request (bound on the core's
	// first request), and with Config.Sleep the end of a wake and the
	// idle timeout that puts the core to sleep.
	completeFn, wakeFn, sleepFn func()

	// residency accumulates busy seconds per frequency.
	residency map[float64]float64
	resT      float64 // last residency accounting instant
	resBusy   bool
	resFreq   float64

	// sleep-state machinery (Config.Sleep)
	asleep   bool
	waking   bool
	sleepEv  sim.EventID
	hasSleep bool
	// Wakes counts sleep-state exits (introspection).
	wakes int
}

// New creates a server on the engine.
func New(eng *sim.Engine, cfg Config) (*Server, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("server: cores must be positive")
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("server: alpha %g out of [0,1]", cfg.Alpha)
	}
	if cfg.FMaxGHz <= 0 {
		return nil, fmt.Errorf("server: fmax must be positive")
	}
	if cfg.PolicyFactory == nil {
		return nil, fmt.Errorf("server: nil policy factory")
	}
	if cfg.Sleep {
		if cfg.SleepAfterIdleS <= 0 {
			cfg.SleepAfterIdleS = 1e-3
		}
		if cfg.WakeLatencyS < 0 {
			cfg.WakeLatencyS = 0
		} else if cfg.WakeLatencyS == 0 {
			cfg.WakeLatencyS = 100e-6
		}
		if cfg.SleepPowerW <= 0 {
			cfg.SleepPowerW = 0.05
		}
	}
	s := &Server{Cfg: cfg}
	for i := 0; i < cfg.Cores; i++ {
		c := &core{
			srv:       s,
			eng:       eng,
			id:        i,
			policy:    cfg.PolicyFactory(i),
			freq:      power.FMaxGHz,
			lastT:     eng.Now(),
			acc:       power.NewAccumulator(eng.Now(), power.CoreIdleW),
			residency: make(map[float64]float64),
			resT:      eng.Now(),
		}
		if cfg.Sleep {
			c.wakeFn, c.sleepFn = c.wake, c.sleep
		}
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// Stats returns aggregate statistics (valid once the engine is quiescent).
func (s *Server) Stats() *Stats { return &s.stats }

// Enqueue dispatches a request to the least-loaded core. It never rejects:
// legacy callers (and the no-admission overload baseline) keep unbounded
// queues regardless of Config.QueueLimit.
func (s *Server) Enqueue(r *Request) {
	best := s.cores[0]
	bestLoad := best.load()
	total := bestLoad
	for _, c := range s.cores[1:] {
		l := c.load()
		total += l
		if l < bestLoad {
			best, bestLoad = c, l
		}
	}
	if total+1 > s.stats.PeakQueue {
		s.stats.PeakQueue = total + 1
	}
	best.enqueue(r)
}

// TryEnqueue dispatches like Enqueue but refuses the request when the
// server already holds Config.QueueLimit requests (queued + in service),
// returning false and counting the rejection. With QueueLimit == 0 it
// never rejects. This is the bounded-queue backstop behind watermark
// admission control: even if the admission layer lets a request slip
// through while pressure rises, the queue cannot grow without bound.
func (s *Server) TryEnqueue(r *Request) bool {
	if s.Cfg.QueueLimit > 0 && s.QueueLen() >= s.Cfg.QueueLimit {
		s.stats.Rejected++
		return false
	}
	s.Enqueue(r)
	return true
}

// QueueLen returns the total number of requests queued or in service.
func (s *Server) QueueLen() int {
	n := 0
	for _, c := range s.cores {
		n += c.load()
	}
	return n
}

// CPUEnergyJ returns total CPU energy up to time t.
func (s *Server) CPUEnergyJ(t float64) float64 {
	e := 0.0
	for _, c := range s.cores {
		e += c.acc.EnergyJ(t)
	}
	return e
}

// CPUPowerW returns average CPU power over [t0, t]. Because energy
// accumulates forward from simulation start, t0 > 0 requires an energy
// snapshot taken AT time t0 (capture CPUEnergyJ while the clock reads t0
// and use CPUPowerWSince); passing t0 > 0 here with no snapshot would
// silently overestimate, so the two-argument form only accepts t0 == 0.
func (s *Server) CPUPowerW(t0, t float64) float64 {
	if t0 != 0 {
		panic("server: CPUPowerW with t0 != 0 needs an energy snapshot; use CPUPowerWSince")
	}
	if t <= t0 {
		return 0
	}
	return s.CPUEnergyJ(t) / (t - t0)
}

// CPUPowerWSince returns average CPU power over [t0, t] given the energy
// snapshot e0 = CPUEnergyJ(t0) captured when the clock read t0.
func (s *Server) CPUPowerWSince(e0, t0, t float64) float64 {
	if t <= t0 {
		return 0
	}
	return (s.CPUEnergyJ(t) - e0) / (t - t0)
}

// TotalPowerW returns average CPU power plus static server power (from
// simulation start; see CPUPowerW for warmup exclusion).
func (s *Server) TotalPowerW(t0, t float64) float64 {
	return s.CPUPowerW(t0, t) + power.ServerStaticW
}

// Utilization returns the busy fraction across cores over [0, t] measured
// in base seconds of completed work per core-second, i.e. offered load.
func (s *Server) Utilization(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return s.stats.BusyBaseSeconds / (t * float64(len(s.cores)))
}

func (c *core) load() int {
	n := len(c.queue) - c.head
	if c.cur != nil {
		n++
	}
	return n
}

func (c *core) enqueue(r *Request) {
	if c.head > 0 && len(c.queue) == cap(c.queue) {
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
	c.queue = append(c.queue, r)
	if c.srv.Cfg.Sleep {
		if c.hasSleep {
			c.eng.Cancel(c.sleepEv)
			c.hasSleep = false
		}
		if c.asleep && !c.waking {
			// Wake the core: requests wait out the exit latency.
			c.waking = true
			c.eng.After(c.srv.Cfg.WakeLatencyS, c.wakeFn)
			return
		}
		if c.waking {
			return // the pending wake event will run decide
		}
	}
	c.decide()
}

// wake ends the exit latency of a sleeping core.
func (c *core) wake() {
	c.asleep = false
	c.waking = false
	c.wakes++
	c.decide()
}

// sleep fires when the idle timeout elapses and puts a still-idle core to
// sleep.
func (c *core) sleep() {
	c.hasSleep = false
	if c.cur == nil && c.head == len(c.queue) {
		c.asleep = true
		c.updatePower()
	}
}

// accountProgress folds elapsed wall time into the in-service request's
// base-seconds counter.
func (c *core) accountProgress() {
	now := c.eng.Now()
	if c.cur != nil {
		dt := now - c.lastT
		if dt > 0 {
			c.cur.workDoneBase += dt / Stretch(c.srv.Cfg.Alpha, c.srv.Cfg.FMaxGHz, c.freq)
		}
	}
	c.lastT = now
}

// decide runs the policy and (re)schedules the completion event.
func (c *core) decide() {
	now := c.eng.Now()
	c.accountProgress()

	if c.cur == nil && c.head < len(c.queue) {
		// Let the policy order the queue before the head starts service:
		// pass cur=nil so it sees the full queue.
		q := c.queue[c.head:]
		f := c.policy.OnDecision(now, nil, q)
		c.cur, q[0] = q[0], nil
		if c.head++; c.head == len(c.queue) {
			c.queue, c.head = c.queue[:0], 0
		}
		c.setFreq(f) // after cur is set, so the power level reflects an active core
		c.scheduleCompletion()
		return
	}
	if c.cur == nil {
		if c.srv.Cfg.Sleep && !c.asleep && !c.hasSleep {
			c.sleepEv = c.eng.After(c.srv.Cfg.SleepAfterIdleS, c.sleepFn)
			c.hasSleep = true
		}
		c.updatePower()
		return
	}
	f := c.policy.OnDecision(now, c.cur, c.queue[c.head:])
	c.setFreq(f)
	c.scheduleCompletion()
}

func (c *core) setFreq(f float64) {
	c.freq = power.SnapFreq(f)
	c.updatePower()
}

func (c *core) updatePower() {
	// Fold the elapsed interval into the frequency-residency histogram
	// before the state changes.
	now := c.eng.Now()
	if c.resBusy && now > c.resT {
		c.residency[c.resFreq] += now - c.resT
	}
	c.resT = now
	c.resBusy = c.cur != nil
	c.resFreq = c.freq

	p := power.CoreIdleW
	if c.asleep {
		p = c.srv.Cfg.SleepPowerW
	}
	if c.cur != nil {
		p = power.CoreActiveW(c.freq)
	}
	// Advance cannot fail here: simulation time is monotone.
	if err := c.acc.Advance(c.eng.Now(), p); err != nil {
		panic(err)
	}
}

func (c *core) scheduleCompletion() {
	if c.hasComp {
		c.eng.Cancel(c.compEv)
		c.hasComp = false
	}
	if c.cur == nil {
		return
	}
	remainingBase := c.cur.BaseServiceS - c.cur.workDoneBase
	if remainingBase < 0 {
		remainingBase = 0
	}
	wall := remainingBase * Stretch(c.srv.Cfg.Alpha, c.srv.Cfg.FMaxGHz, c.freq)
	if c.completeFn == nil {
		c.completeFn = c.complete
	}
	c.compEv = c.eng.After(wall, c.completeFn)
	c.hasComp = true
}

func (c *core) complete() {
	c.hasComp = false
	c.accountProgress()
	now := c.eng.Now()
	r := c.cur
	c.cur = nil

	st := &c.srv.stats
	st.Completed++
	st.BusyBaseSeconds += r.BaseServiceS
	if now > r.SlackDeadline+1e-12 {
		st.SlackMisses++
	}
	if now > r.ServerDeadline+1e-12 {
		st.ServerMisses++
	}
	c.policy.OnComplete(now, r)
	if c.srv.OnComplete != nil {
		c.srv.OnComplete(r, now)
	}
	c.updatePower()
	c.decide()
}

// SaturationReporter is implemented by policies that can tell when their
// SLA became infeasible — the chosen frequency was fmax and the tail
// budget still could not be met. The dvfs model policies and TimeTrader
// implement it; MaxFreq (no SLA model) does not.
type SaturationReporter interface {
	// SaturationCount returns the cumulative number of infeasible
	// decisions (or saturated adjustment epochs) so far.
	SaturationCount() int64
}

// SaturationEpochs sums the saturation counters of every core policy that
// implements SaturationReporter — the per-server saturation signal the
// overload control plane polls. Servers whose policies cannot report
// saturation contribute zero.
func (s *Server) SaturationEpochs() int64 {
	var n int64
	for _, c := range s.cores {
		if r, ok := c.policy.(SaturationReporter); ok {
			n += r.SaturationCount()
		}
	}
	return n
}

// Wakes returns total sleep-state exits across cores.
func (s *Server) Wakes() int {
	n := 0
	for _, c := range s.cores {
		n += c.wakes
	}
	return n
}

// MissRate returns the fraction of completed requests that missed their
// slack deadline (the SLA metric: target 1 − 0.95).
func (st *Stats) MissRate() float64 {
	if st.Completed == 0 {
		return 0
	}
	return float64(st.SlackMisses) / float64(st.Completed)
}

// ServerMissRate is MissRate against the server-budget deadline.
func (st *Stats) ServerMissRate() float64 {
	if st.Completed == 0 {
		return 0
	}
	return float64(st.ServerMisses) / float64(st.Completed)
}

// RateForUtilization returns the Poisson arrival rate (req/s) that loads a
// server with the given core count to the target utilization for a mean
// base service time.
func RateForUtilization(util float64, cores int, meanBaseS float64) float64 {
	if meanBaseS <= 0 {
		return 0
	}
	return util * float64(cores) / meanBaseS
}

// ExpectedStretch sanity-checks a stretch factor (tests).
func ExpectedStretch(alpha, fmax, f float64) float64 {
	return Stretch(alpha, fmax, math.Max(f, 1e-9))
}
