// Package faults injects deterministic, seeded failure and repair events
// into the packet-level network simulator. EPRONS's headline saving comes
// from consolidating traffic onto a *minimal* powered subnet (paper §IV-A)
// — exactly the regime where a single switch crash, link flap or
// reconfiguration transient partitions flows. This package makes those
// paths exercisable: a Schedule is a time-ordered list of fail/repair
// events generated from a seed, and an Injector applies them against the
// live netsim.Network by masking failed elements out of whatever active
// set the controller installs (via netsim.SetActiveFilter), firing a hook
// after every change so route repair can run.
//
// Determinism contract: a given (graph, config, seed) always generates
// the same Schedule, and the Injector only schedules the events it is
// given — with no schedule installed it schedules nothing, so fault-free
// runs are bit-identical to runs without the package.
package faults

import (
	"fmt"
	"sort"

	"eprons/internal/netsim"
	"eprons/internal/rng"
	"eprons/internal/sim"
	"eprons/internal/topology"
)

// Kind classifies a fault event.
type Kind int

// Event kinds. Fail events mask an element out of the powered subnet;
// Repair events unmask it. A reconfiguration transient is a short-gap
// fail/repair pair (see Transient).
const (
	SwitchFail Kind = iota
	SwitchRepair
	LinkFail
	LinkRepair
)

func (k Kind) String() string {
	switch k {
	case SwitchFail:
		return "switch-fail"
	case SwitchRepair:
		return "switch-repair"
	case LinkFail:
		return "link-fail"
	case LinkRepair:
		return "link-repair"
	}
	return "?"
}

// Event is one scheduled failure or repair.
type Event struct {
	At   float64
	Kind Kind
	// Node is the victim for switch events; Link for link events.
	Node topology.NodeID
	Link topology.LinkID
}

// Schedule is a time-ordered fault script.
type Schedule struct {
	Events []Event
}

// Len returns the number of scheduled events.
func (s *Schedule) Len() int { return len(s.Events) }

// sortEvents orders events by time, stably (ties keep generation order,
// which keeps fail-before-repair pairs intact).
func (s *Schedule) sortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
}

// Append adds events and re-sorts.
func (s *Schedule) Append(evs ...Event) {
	s.Events = append(s.Events, evs...)
	s.sortEvents()
}

// Transient returns the fail/repair event pair of a reconfiguration
// transient: the given links vanish at `at` and return at `at+duration`
// (the make-before-break window a controller without transition delay
// exposes).
func Transient(at, duration float64, links ...topology.LinkID) []Event {
	var evs []Event
	for _, l := range links {
		evs = append(evs,
			Event{At: at, Kind: LinkFail, Link: l},
			Event{At: at + duration, Kind: LinkRepair, Link: l},
		)
	}
	return evs
}

// SwitchCrash returns the fail/repair pair of one switch outage.
func SwitchCrash(at, duration float64, node topology.NodeID) []Event {
	return []Event{
		{At: at, Kind: SwitchFail, Node: node},
		{At: at + duration, Kind: SwitchRepair, Node: node},
	}
}

// ScheduleConfig parameterizes random schedule generation.
type ScheduleConfig struct {
	// Duration bounds failure injection: no fail event is generated at or
	// after Duration (repairs may land later so outages always end).
	Duration float64
	// SwitchFailsPerSec is the fabric-wide switch-crash rate (a Poisson
	// process; 0 disables switch crashes).
	SwitchFailsPerSec float64
	// LinkFlapsPerSec is the fabric-wide link-flap rate (0 disables).
	LinkFlapsPerSec float64
	// RepairMeanS is the mean time-to-repair, exponentially distributed
	// (default 0.2 s — software-switch restart scale, not the 72.5 s
	// hardware power-on the controller's transition delay models).
	RepairMeanS float64
	// MinRepairS floors every outage length (default 1 ms) so that zero
	// duration outages cannot degenerate into no-ops.
	MinRepairS float64
	// FailEdge allows edge switches to crash. Default false: an edge
	// switch is the only attachment point of its hosts in a fat-tree, so
	// crashing one partitions hosts no matter how much spare fabric is
	// powered — availability experiments that assert full recovery keep
	// faults in the agg/core tiers and on links, like the paper's
	// consolidation does.
	FailEdge bool
}

func (c *ScheduleConfig) fill() {
	if c.RepairMeanS <= 0 {
		c.RepairMeanS = 0.2
	}
	if c.MinRepairS <= 0 {
		c.MinRepairS = 1e-3
	}
}

// Generate builds a seeded random fault schedule over g: switch crashes
// and link flaps arrive as independent Poisson processes, victims are
// drawn uniformly from the eligible elements, and every failure gets a
// matching repair event after an exponential outage. An element already
// down at the drawn instant is skipped (no double-failure), which keeps
// the fail/repair pairing trivially consistent. The same (g, cfg, seed)
// triple always yields the same schedule.
func Generate(g *topology.Graph, cfg ScheduleConfig, seed int64) *Schedule {
	cfg.fill()
	stream := rng.Derive(seed, "faults")
	s := &Schedule{}

	var switches []topology.NodeID
	for _, n := range g.Nodes() {
		if !n.Kind.IsSwitch() {
			continue
		}
		if n.Kind == topology.EdgeSwitch && !cfg.FailEdge {
			continue
		}
		switches = append(switches, n.ID)
	}
	links := g.Links()

	// Switch-crash process.
	if cfg.SwitchFailsPerSec > 0 && len(switches) > 0 {
		downUntil := make(map[topology.NodeID]float64)
		for t := stream.Exp(1 / cfg.SwitchFailsPerSec); t < cfg.Duration; t += stream.Exp(1 / cfg.SwitchFailsPerSec) {
			victim := switches[stream.Intn(len(switches))]
			outage := stream.Exp(cfg.RepairMeanS)
			if outage < cfg.MinRepairS {
				outage = cfg.MinRepairS
			}
			if t < downUntil[victim] {
				continue // still down from a previous crash
			}
			downUntil[victim] = t + outage
			s.Events = append(s.Events,
				Event{At: t, Kind: SwitchFail, Node: victim},
				Event{At: t + outage, Kind: SwitchRepair, Node: victim},
			)
		}
	}

	// Link-flap process.
	if cfg.LinkFlapsPerSec > 0 && len(links) > 0 {
		downUntil := make(map[topology.LinkID]float64)
		for t := stream.Exp(1 / cfg.LinkFlapsPerSec); t < cfg.Duration; t += stream.Exp(1 / cfg.LinkFlapsPerSec) {
			victim := links[stream.Intn(len(links))].ID
			outage := stream.Exp(cfg.RepairMeanS)
			if outage < cfg.MinRepairS {
				outage = cfg.MinRepairS
			}
			if t < downUntil[victim] {
				continue
			}
			downUntil[victim] = t + outage
			s.Events = append(s.Events,
				Event{At: t, Kind: LinkFail, Link: victim},
				Event{At: t + outage, Kind: LinkRepair, Link: victim},
			)
		}
	}

	s.sortEvents()
	return s
}

// Injector applies fault events to a live network. It interposes on the
// network's active-set installation path: the controller keeps installing
// whatever powered subnet it wants, and the injector masks the currently
// failed elements out of it. Fault and repair events re-apply the mask and
// then fire OnChange, the controller's cue to run route repair.
type Injector struct {
	eng *sim.Engine
	net *netsim.Network

	downNode map[topology.NodeID]bool
	downLink map[topology.LinkID]bool
	// desired is the most recent active set the controller requested,
	// before masking; fault events recompute the effective set from it.
	desired *topology.ActiveSet

	// OnChange, if set, runs after each applied event (after the masked
	// active set is installed). Wire it to Controller.RepairRoutes.
	OnChange func(ev Event)

	// Injected counts applied events.
	Injected int
	started  bool
}

// NewInjector interposes an injector on net's active-set path. Install it
// BEFORE the controller applies its first configuration so that no
// installation bypasses the mask.
func NewInjector(net *netsim.Network) *Injector {
	inj := &Injector{
		eng:      net.Engine(),
		net:      net,
		downNode: make(map[topology.NodeID]bool),
		downLink: make(map[topology.LinkID]bool),
		desired:  net.Active().Clone(),
	}
	net.SetActiveFilter(func(requested *topology.ActiveSet) *topology.ActiveSet {
		inj.desired = requested.Clone()
		return inj.mask(requested)
	})
	return inj
}

// mask turns the currently failed elements off in a (clones are the
// caller's concern) and returns it.
func (inj *Injector) mask(a *topology.ActiveSet) *topology.ActiveSet {
	for id := range inj.downNode {
		a.SetNode(id, false)
	}
	for id := range inj.downLink {
		a.SetLink(id, false)
	}
	return a
}

// Start schedules every event of sched on the engine. Call at most once.
func (inj *Injector) Start(sched *Schedule) error {
	if inj.started {
		return fmt.Errorf("faults: injector already started")
	}
	inj.started = true
	for _, ev := range sched.Events {
		ev := ev
		inj.eng.Schedule(ev.At, func() { inj.apply(ev) })
	}
	return nil
}

// apply executes one event: update the down sets, reinstall the masked
// active set, notify.
func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case SwitchFail:
		if inj.net.Graph().Node(ev.Node).Kind == topology.Host {
			panic("faults: cannot fail a host")
		}
		inj.downNode[ev.Node] = true
	case SwitchRepair:
		delete(inj.downNode, ev.Node)
	case LinkFail:
		inj.downLink[ev.Link] = true
	case LinkRepair:
		delete(inj.downLink, ev.Link)
	}
	inj.Injected++
	// Reinstall the controller's desired subnet; the filter re-masks with
	// the updated down sets.
	inj.net.SetActive(inj.desired)
	if inj.OnChange != nil {
		inj.OnChange(ev)
	}
}

// NodeDown reports whether a switch is currently failed.
func (inj *Injector) NodeDown(id topology.NodeID) bool { return inj.downNode[id] }

// Down returns the current counts of failed switches and links.
func (inj *Injector) Down() (nodes, links int) {
	return len(inj.downNode), len(inj.downLink)
}
