package experiments

import (
	"fmt"

	"eprons/internal/faults"
	"eprons/internal/parallel"
	"eprons/internal/workload"
)

// AvailabilityConfig drives the fault-injection availability sweep: how
// well does a consolidated (minimally powered) fabric keep serving
// partition-aggregate queries while switches crash and links flap?
type AvailabilityConfig struct {
	// DurationS of fault injection and query traffic per cell (default 5).
	DurationS float64
	// QueryRate in queries/s (default 40).
	QueryRate float64
	// ScaleK is the consolidation scale factor (default 1 — the minimal
	// subnet, the regime where faults bite hardest).
	ScaleK float64
	// SubQueryTimeout arms the aggregator retry timer. 0 means
	// DefaultSubQueryTimeoutS; Disabled (negative) disarms the timer.
	SubQueryTimeout float64
	// RetryBudget is the per-query sub-query re-send budget. 0 means
	// DefaultRetryBudget; Disabled (negative) turns retries off.
	RetryBudget int
	// RepairMeanS is the mean outage duration (default 0.2 s).
	RepairMeanS float64
	// SurgeMagnitude layers a flash crowd over the query rate — a surge of
	// this peak multiplier (profile SurgeProfile) spanning the middle half
	// of the run — so faults and overload stress the system at once.
	// Values <= 1 disable it (the default sweep is fault-only).
	SurgeMagnitude float64
	// SurgeProfile shapes the surge (default step).
	SurgeProfile workload.SurgeProfile
	// Admission enables the overload control plane (bounded queues,
	// watermark shedding) during the fault sweep.
	Admission bool
	Seed      int64
	// Workers bounds sweep concurrency; each fault-rate cell is an
	// independent simulation with per-cell derived seeds, so results are
	// identical for every worker count.
	Workers int
}

// fill resolves zero fields to their defaults and rejects negative ones.
func (c *AvailabilityConfig) fill() error {
	if err := nonNegative("AvailabilityConfig", field{"DurationS", c.DurationS}, field{"QueryRate", c.QueryRate},
		field{"ScaleK", c.ScaleK}, field{"RepairMeanS", c.RepairMeanS}); err != nil {
		return err
	}
	if c.DurationS == 0 {
		c.DurationS = 5
	}
	if c.QueryRate == 0 {
		c.QueryRate = 40
	}
	if c.ScaleK == 0 {
		c.ScaleK = 1
	}
	if c.RepairMeanS == 0 {
		c.RepairMeanS = 0.2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// AvailabilityRow summarizes one fault-rate operating point.
type AvailabilityRow struct {
	// FailRate is the total fabric fault rate (events/s), split evenly
	// between switch crashes and link flaps.
	FailRate float64
	// Query accounting: Submitted = Completed + Lost + Shed + Orphans.
	// Orphans must be zero after the drained run — every query terminates.
	// Shed stays zero unless Admission is enabled.
	Submitted int
	Completed int
	Lost      int
	Shed      int
	Orphans   int
	// Recovery machinery counters.
	Retries    int
	Timeouts   int
	DroppedSub int   // dropped sub-query messages (either direction)
	MsgDropped int64 // network-wide message-level drops
	// Goodput is Completed/Submitted; StrictMissRate counts lost queries
	// as SLA misses over all terminated queries.
	Goodput        float64
	StrictMissRate float64
	// P95S is the 95th-percentile end-to-end latency of completed queries.
	P95S float64
	// Controller repair activity.
	Repaired      int
	FailedRepairs int
	Emergencies   int
	// FaultsInjected counts applied fail/repair events.
	FaultsInjected int
	// ActiveSwitches of the initial consolidation.
	ActiveSwitches int
}

// AvailabilitySweep runs the availability experiment across fault rates:
// a consolidated fat-tree serves Poisson partition-aggregate queries while
// a seeded schedule of switch crashes and link flaps (rate split evenly)
// degrades the powered subnet. The controller repairs routes on every
// fault event (escalating to an emergency full-fabric power-on when the
// consolidated subnet is partitioned), and the cluster's timeout/retry
// machinery re-sends sub-queries lost in transients. After the traffic
// window the engine drains completely, so every submitted query terminates
// as completed or lost; the runtime audit asserts Orphans is zero.
func AvailabilitySweep(failRates []float64, cfg AvailabilityConfig) ([]AvailabilityRow, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	// Optional flash crowd on top of the faults: a surge spanning the
	// middle half of the run. An empty train multiplies by exactly 1, so
	// the fault-only sweep is untouched.
	var crowd workload.SurgeTrain
	if cfg.SurgeMagnitude > 1 {
		crowd.Surges = append(crowd.Surges, workload.Surge{
			Profile:   cfg.SurgeProfile,
			StartS:    cfg.DurationS * 0.25,
			DurationS: cfg.DurationS * 0.5,
			Magnitude: cfg.SurgeMagnitude,
		})
	}
	return parallel.Map(len(failRates), cfg.Workers, func(i int) (AvailabilityRow, error) {
		failRate := failRates[i]
		c, err := runCell(cellSpec{
			seed:        cfg.Seed + int64(i),
			durationS:   cfg.DurationS,
			scaleK:      cfg.ScaleK,
			timeoutS:    resolveSubQueryTimeout(cfg.SubQueryTimeout),
			retryBudget: resolveRetryBudget(cfg.RetryBudget),
			admission:   cfg.Admission,
			reserveRate: cfg.QueryRate,
			queryRate:   cfg.QueryRate,
			crowd:       crowd,
			faults: &faults.ScheduleConfig{
				Duration:          cfg.DurationS,
				SwitchFailsPerSec: failRate / 2,
				LinkFlapsPerSec:   failRate / 2,
				RepairMeanS:       cfg.RepairMeanS,
			},
		})
		if err != nil {
			return AvailabilityRow{}, fmt.Errorf("fail rate %.3g: %w", failRate, err)
		}
		st := c.st
		return AvailabilityRow{
			FailRate:       failRate,
			Submitted:      st.QueriesSubmitted,
			Completed:      st.Queries,
			Lost:           st.QueriesLost,
			Shed:           st.QueriesShed,
			Orphans:        st.Orphans(),
			Retries:        st.Retries,
			Timeouts:       st.Timeouts,
			DroppedSub:     st.DroppedSub,
			MsgDropped:     c.net.MsgDropped,
			Goodput:        st.Goodput(),
			StrictMissRate: st.StrictMissRate(),
			P95S:           st.QueryLatency.Quantile(0.95),
			Repaired:       c.ctl.RepairedRoutes,
			FailedRepairs:  c.ctl.FailedRepairs,
			Emergencies:    c.ctl.Emergencies,
			FaultsInjected: c.faultsInjected,
			ActiveSwitches: c.activeSwitches,
		}, nil
	})
}

// AvailabilityTable renders the sweep for the CLI harnesses.
func AvailabilityTable(rows []AvailabilityRow) *Table {
	t := &Table{
		Title: "Availability under fault injection — consolidated subnet with route repair + sub-query retry",
		Headers: []string{"fail/s", "submitted", "completed", "lost", "orphans", "retries",
			"dropped msgs", "goodput", "strict miss", "p95(ms)", "repaired", "emergencies", "faults"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.3g", r.FailRate),
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Lost),
			fmt.Sprintf("%d", r.Orphans),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.MsgDropped),
			Pct(r.Goodput),
			Pct(r.StrictMissRate),
			Ms(r.P95S),
			fmt.Sprintf("%d", r.Repaired),
			fmt.Sprintf("%d", r.Emergencies),
			fmt.Sprintf("%d", r.FaultsInjected),
		)
	}
	return t
}
