package experiments

import (
	"fmt"

	"eprons/internal/cluster"
	"eprons/internal/faults"
	"eprons/internal/parallel"
)

// ReplicaConfig drives the replicated search-tier sweep: how do the
// replication factor and the replica-selection policy trade goodput, tail
// latency, duplicate work and joint power while hosts drop off the fabric?
// Unlike the availability sweep, the fault schedule here may crash EDGE
// switches — isolating hosts outright — because surviving host loss is
// exactly what replication buys.
type ReplicaConfig struct {
	// DurationS of fault injection and query traffic per cell (default 5).
	DurationS float64
	// QueryRate in queries/s (default 40).
	QueryRate float64
	// ScaleK is the consolidation scale factor (default 1).
	ScaleK float64
	// Partitions of the search index (default: cluster's default, one per
	// host minus the aggregator slot).
	Partitions int
	// SubQueryTimeout arms the aggregator retry timer. 0 means
	// DefaultSubQueryTimeoutS; Disabled (negative) disarms the timer.
	SubQueryTimeout float64
	// RetryBudget is the shared per-query re-send budget spent after the
	// R-1 free failovers. 0 means DefaultRetryBudget; Disabled (negative)
	// turns retries off, leaving failover as the only recovery.
	RetryBudget int
	// HedgeDelayS overrides the hedged policy's duplicate delay (0 = track
	// the observed sub-query p95).
	HedgeDelayS float64
	// RepairMeanS is the mean outage duration (default 0.2 s).
	RepairMeanS float64
	Seed        int64
	// Workers bounds sweep concurrency; each cell is an independent
	// simulation with per-cell derived seeds, so results are identical for
	// every worker count.
	Workers int
}

// fill resolves zero fields to their defaults and rejects negative ones.
func (c *ReplicaConfig) fill() error {
	if err := nonNegative("ReplicaConfig", field{"DurationS", c.DurationS}, field{"QueryRate", c.QueryRate},
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

// ReplicaRow summarizes one (replication factor, selection policy, fault
// rate) operating point.
type ReplicaRow struct {
	Replicas  int
	Selection cluster.SelectionPolicy
	// FailRate is the total fabric fault rate (events/s), split evenly
	// between switch crashes (edge tier included) and link flaps.
	FailRate float64
	// Query accounting: Submitted = Completed + Lost + Orphans; Orphans
	// must be zero after the drained run.
	Submitted int
	Completed int
	Lost      int
	Orphans   int
	// Goodput is Completed/Submitted.
	Goodput float64
	// P95S/P99S are end-to-end latency quantiles of completed queries.
	P95S float64
	P99S float64
	// Attempt accounting. SubAttempts counts every sub-query send
	// (first attempts, failovers, retries and hedges); Failovers counts
	// replica-failover re-sends (not charged to the retry budget).
	SubAttempts int
	Failovers   int
	Retries     int
	Timeouts    int
	DroppedSub  int
	// Hedge accounting: Hedges = HedgeWins + HedgeWasted after the drain.
	Hedges      int
	HedgeWins   int
	HedgeWasted int
	// HedgeRate is Hedges over non-hedge attempts — the extra-work
	// fraction the hedging policy paid. WastedFrac is HedgeWasted over all
	// attempts — the share of total work that was a losing duplicate.
	HedgeRate  float64
	WastedFrac float64
	// Joint power over the traffic window: servers (CPU + static),
	// network (sampled active-set power), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
	// ActiveSwitches of the initial consolidation.
	ActiveSwitches int
	// Planner and repair activity. StrandedRejects counts consolidations
	// vetoed by the replica guard (an applied run must show zero stranded
	// partitions — the audit asserts reachability directly).
	StrandedRejects int
	Repaired        int
	Emergencies     int
	FaultsInjected  int
}

// ReplicaSweep runs the replicated-tier experiment over the cross product
// of replication factors × selection policies × fault rates. Each cell is
// an independent seeded simulation: a consolidated fat-tree serves Poisson
// partition-aggregate queries over a consistent-hash placed, R-replicated
// index while switches (including edge switches) crash and links flap. The
// controller repairs routes and re-admits suspect replicas on repair
// events; the consolidation planner is armed with the replica guard, so an
// applied active set can never strand a partition. Every replication
// factor must be positive: the broadcast tier (R=0) has no selection
// policy to sweep, and AvailabilitySweep covers it.
func ReplicaSweep(replicas []int, selections []cluster.SelectionPolicy, failRates []float64, cfg ReplicaConfig) ([]ReplicaRow, error) {
	for _, r := range replicas {
		if r <= 0 {
			return nil, fmt.Errorf("experiments: replication factor %d must be positive", r)
		}
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	type cellKey struct {
		r    int
		sel  cluster.SelectionPolicy
		rate float64
	}
	var cells []cellKey
	for _, r := range replicas {
		for _, sel := range selections {
			for _, rate := range failRates {
				cells = append(cells, cellKey{r, sel, rate})
			}
		}
	}
	return parallel.Map(len(cells), cfg.Workers, func(i int) (ReplicaRow, error) {
		k := cells[i]
		c, err := runCell(cellSpec{
			seed:        cfg.Seed + int64(i),
			durationS:   cfg.DurationS,
			scaleK:      cfg.ScaleK,
			timeoutS:    resolveSubQueryTimeout(cfg.SubQueryTimeout),
			retryBudget: resolveRetryBudget(cfg.RetryBudget),
			replica: &replicaSpec{
				replicas:    k.r,
				partitions:  cfg.Partitions,
				selection:   k.sel,
				hedgeDelayS: cfg.HedgeDelayS,
			},
			reserveRate: cfg.QueryRate,
			queryRate:   cfg.QueryRate,
			faults: &faults.ScheduleConfig{
				Duration:          cfg.DurationS,
				SwitchFailsPerSec: k.rate / 2,
				LinkFlapsPerSec:   k.rate / 2,
				RepairMeanS:       cfg.RepairMeanS,
				FailEdge:          true,
			},
			samplePower: true,
		})
		if err != nil {
			return ReplicaRow{}, fmt.Errorf("R=%d %v fail rate %.3g: %w", k.r, k.sel, k.rate, err)
		}
		st := c.st
		row := ReplicaRow{
			Replicas:        k.r,
			Selection:       k.sel,
			FailRate:        k.rate,
			Submitted:       st.QueriesSubmitted,
			Completed:       st.Queries,
			Lost:            st.QueriesLost,
			Orphans:         st.Orphans(),
			Goodput:         st.Goodput(),
			P95S:            st.QueryLatency.Quantile(0.95),
			P99S:            st.QueryLatency.Quantile(0.99),
			SubAttempts:     st.SubAttempts,
			Failovers:       st.Failovers,
			Retries:         st.Retries,
			Timeouts:        st.Timeouts,
			DroppedSub:      st.DroppedSub,
			Hedges:          st.Hedges,
			HedgeWins:       st.HedgeWins,
			HedgeWasted:     st.HedgeWasted,
			ServerW:         c.serverW,
			NetW:            c.netW,
			TotalW:          c.serverW + c.netW,
			ActiveSwitches:  c.activeSwitches,
			StrandedRejects: c.ctl.StrandedRejects,
			Repaired:        c.ctl.RepairedRoutes,
			Emergencies:     c.ctl.Emergencies,
			FaultsInjected:  c.faultsInjected,
		}
		if base := st.SubAttempts - st.Hedges; base > 0 {
			row.HedgeRate = float64(st.Hedges) / float64(base)
		}
		if st.SubAttempts > 0 {
			row.WastedFrac = float64(st.HedgeWasted) / float64(st.SubAttempts)
		}
		return row, nil
	})
}

// ReplicaTable renders the sweep for the CLI harnesses.
func ReplicaTable(rows []ReplicaRow) *Table {
	t := &Table{
		Title: "Replicated search tier — goodput, tails, duplicate work and joint power vs R × selection × fault rate",
		Headers: []string{"R", "selection", "fail/s", "submitted", "lost", "goodput", "p95(ms)", "p99(ms)",
			"failovers", "hedges", "hedge rate", "wasted", "stranded", "total W"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Replicas),
			r.Selection.String(),
			fmt.Sprintf("%.3g", r.FailRate),
			fmt.Sprintf("%d", r.Submitted),
			fmt.Sprintf("%d", r.Lost),
			Pct(r.Goodput),
			Ms(r.P95S),
			Ms(r.P99S),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Hedges),
			Pct(r.HedgeRate),
			Pct(r.WastedFrac),
			fmt.Sprintf("%d", r.StrandedRejects),
			W(r.TotalW),
		)
	}
	return t
}
