package experiments

import (
	"fmt"
	"math"

	"eprons/internal/parallel"
	"eprons/internal/workload"
)

// OverloadConfig drives the flash-crowd overload sweep: the offered query
// rate is pushed to multiplier × BaseRate and the overload control plane
// (bounded queues + watermark admission + surge response) is compared
// against the unprotected baseline at every operating point.
type OverloadConfig struct {
	// DurationS of query traffic per cell (default 2). The engine then
	// drains completely, so the no-admission baseline pays for its backlog
	// in full.
	DurationS float64
	// BaseRate is the 1× offered query rate in queries/s (default 200,
	// ≈40% cluster utilization on the 16-host / 2-core cell, so 3× is a
	// genuine overload).
	BaseRate float64
	// SurgeStartFrac places the surge onset at this fraction of the run
	// (default 0.25); the surge then holds to the end of the traffic
	// window so the backlog snapshot at DurationS lands mid-crowd.
	SurgeStartFrac float64
	// Profile shapes multipliers > 1 (default SurgeStep — the classic
	// flash crowd).
	Profile workload.SurgeProfile
	// ScaleK is the consolidation scale factor (default 1 — the minimal
	// subnet the surge response re-expands).
	ScaleK float64
	// TTPeriod is the TimeTrader adjustment period (default 1 s; the
	// paper's 5 s is too slow to react within a short cell).
	TTPeriod float64
	// RetryBudget is the per-query sub-query re-send budget
	// (bounded-queue rejections ride the retry path). 0 means
	// DefaultRetryBudget; Disabled (negative) turns retries off.
	RetryBudget int
	// HighWM overrides the admission high watermark (default 0 derives
	// the SLA-aware value from the service distribution).
	HighWM int
	// SurgeResponse starts the controller's surge-response loop in the
	// admission cells (no-admission cells never get one: the baseline is
	// the fully unprotected system).
	SurgeResponse bool
	Seed          int64
	// Workers bounds sweep concurrency; each multiplier cell is an
	// independent simulation with per-cell derived seeds, so results are
	// identical for every worker count.
	Workers int
}

// fill resolves zero fields to their defaults and rejects negative ones.
func (c *OverloadConfig) fill() error {
	if err := nonNegative("OverloadConfig", field{"DurationS", c.DurationS}, field{"BaseRate", c.BaseRate},
		field{"ScaleK", c.ScaleK}, field{"TTPeriod", c.TTPeriod}); err != nil {
		return err
	}
	if c.DurationS == 0 {
		c.DurationS = 2
	}
	if c.BaseRate == 0 {
		c.BaseRate = 200
	}
	if c.SurgeStartFrac <= 0 || c.SurgeStartFrac >= 1 {
		c.SurgeStartFrac = 0.25
	}
	if c.ScaleK == 0 {
		c.ScaleK = 1
	}
	if c.TTPeriod == 0 {
		c.TTPeriod = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// OverloadCell is one (multiplier, admission setting) simulation outcome.
type OverloadCell struct {
	// Query accounting: Submitted = Completed + Shed + Lost + Orphans;
	// Orphans must be zero after the drained run.
	Submitted int
	Completed int
	Shed      int
	Lost      int
	Orphans   int
	// RejectedSub counts bounded-queue refusals at the ISNs (the backstop
	// behind the aggregator watermark); ShedEpisodes counts distinct
	// shedding episodes (hysteresis edges, not per-query rejections).
	RejectedSub  int
	ShedEpisodes int
	// Goodput is Completed/Submitted; ShedRate is Shed/Submitted.
	Goodput  float64
	ShedRate float64
	// P95S/P99S are end-to-end latency quantiles of ADMITTED, completed
	// queries — the population admission control promises to protect.
	P95S float64
	P99S float64
	// AttainRate is the fraction of completed queries inside the
	// end-to-end SLA (server + network budget).
	AttainRate float64
	// PeakQueue is the highest per-server queue depth seen anywhere;
	// EndQueue is the total backlog at the moment traffic stops (the
	// unbounded-growth signature of the no-admission baseline).
	PeakQueue int
	EndQueue  int
	// SaturationEpochs counts DVFS decisions pinned at fmax with the SLA
	// still infeasible — the server-side surge signal.
	SaturationEpochs int64
	// Surge-response activity (zero without SurgeResponse).
	SurgeExpansions       int
	SurgeReconsolidations int
	// Power over the traffic window [0, DurationS]: servers (CPU +
	// static), network (sampled active-set power), and their sum.
	ServerW float64
	NetW    float64
	TotalW  float64
}

// OverloadRow compares the protected and unprotected systems at one
// offered-load multiplier.
type OverloadRow struct {
	// Multiplier scales BaseRate: ≤1 scales the whole window, >1 arrives
	// as a flash-crowd surge (cfg.Profile) from SurgeStartFrac·DurationS
	// to the end of the window.
	Multiplier float64
	// AC is the cell with the overload control plane enabled; NoAC is the
	// unprotected baseline (unbounded queues, no shedding, no surge
	// response).
	AC   OverloadCell
	NoAC OverloadCell
}

// OverloadSweep runs the flash-crowd experiment across offered-load
// multipliers. Each multiplier runs the same seeded workload twice — with
// the overload control plane and without — so the comparison isolates the
// control plane's effect: bounded tail latency for admitted work at the
// cost of an explicit shed rate, versus unbounded queue growth.
func OverloadSweep(multipliers []float64, cfg OverloadConfig) ([]OverloadRow, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return parallel.Map(len(multipliers), cfg.Workers, func(i int) (OverloadRow, error) {
		mult := multipliers[i]
		if mult <= 0 || math.IsNaN(mult) || math.IsInf(mult, 0) {
			return OverloadRow{}, fmt.Errorf("non-positive offered-load multiplier %g", mult)
		}
		seed := cfg.Seed + int64(i)
		ac, err := runCell(overloadSpec(mult, true, cfg, seed))
		if err != nil {
			return OverloadRow{}, fmt.Errorf("multiplier %.3g (admission): %w", mult, err)
		}
		row := OverloadRow{Multiplier: mult, AC: overloadCellOf(ac)}
		noac, err := runCell(overloadSpec(mult, false, cfg, seed))
		if err != nil {
			return OverloadRow{}, fmt.Errorf("multiplier %.3g (baseline): %w", mult, err)
		}
		row.NoAC = overloadCellOf(noac)
		return row, nil
	})
}

// overloadSpec is one (multiplier, admission) cell. The pair flows
// reserve bandwidth for the BASE rate: multipliers ≤ 1 scale the whole
// window, multipliers > 1 arrive as a flash crowd (cfg.Profile) that
// starts at SurgeStartFrac·DurationS and holds to the end of the window,
// so the backlog snapshot at DurationS lands mid-crowd. No-admission
// cells never get a surge response: the baseline is the fully
// unprotected system.
func overloadSpec(mult float64, admission bool, cfg OverloadConfig, seed int64) cellSpec {
	rate := cfg.BaseRate
	var crowd workload.SurgeTrain
	if mult <= 1 {
		rate *= mult
	} else {
		start := cfg.SurgeStartFrac * cfg.DurationS
		crowd.Surges = append(crowd.Surges, workload.Surge{
			Profile:   cfg.Profile,
			StartS:    start,
			DurationS: cfg.DurationS - start,
			Magnitude: mult,
		})
	}
	return cellSpec{
		seed:          seed,
		durationS:     cfg.DurationS,
		scaleK:        cfg.ScaleK,
		ttPeriod:      cfg.TTPeriod,
		retryBudget:   resolveRetryBudget(cfg.RetryBudget),
		admission:     admission,
		highWM:        cfg.HighWM,
		reserveRate:   cfg.BaseRate,
		queryRate:     rate,
		crowd:         crowd,
		surgeResponse: admission && cfg.SurgeResponse,
		samplePower:   true,
	}
}

func overloadCellOf(c *cellResult) OverloadCell {
	st := c.st
	return OverloadCell{
		Submitted:             st.QueriesSubmitted,
		Completed:             st.Queries,
		Shed:                  st.QueriesShed,
		Lost:                  st.QueriesLost,
		Orphans:               st.Orphans(),
		RejectedSub:           st.RejectedSub,
		ShedEpisodes:          st.ShedTransitions,
		Goodput:               st.Goodput(),
		ShedRate:              st.ShedRate(),
		P95S:                  st.QueryLatency.Quantile(0.95),
		P99S:                  st.QueryLatency.Quantile(0.99),
		AttainRate:            1 - st.MissRate(),
		PeakQueue:             c.cl.PeakQueue(),
		EndQueue:              c.endQueue,
		SaturationEpochs:      c.cl.SaturationEpochs(),
		SurgeExpansions:       c.ctl.SurgeExpansions,
		SurgeReconsolidations: c.ctl.SurgeReconsolidations,
		ServerW:               c.serverW,
		NetW:                  c.netW,
		TotalW:                c.serverW + c.netW,
	}
}

// OverloadTable renders the sweep for the CLI harnesses.
func OverloadTable(rows []OverloadRow) *Table {
	t := &Table{
		Title: "Overload control plane under flash crowds — admission+shedding (AC) vs unprotected baseline",
		Headers: []string{"mult", "submitted", "AC shed", "AC goodput", "AC p99(ms)", "AC attain",
			"AC peakQ", "surges", "base p99(ms)", "base attain", "base peakQ", "base endQ", "AC W", "base W"},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%.2g", r.Multiplier),
			fmt.Sprintf("%d", r.AC.Submitted),
			fmt.Sprintf("%d", r.AC.Shed),
			Pct(r.AC.Goodput),
			Ms(r.AC.P99S),
			Pct(r.AC.AttainRate),
			fmt.Sprintf("%d", r.AC.PeakQueue),
			fmt.Sprintf("%d", r.AC.SurgeExpansions),
			Ms(r.NoAC.P99S),
			Pct(r.NoAC.AttainRate),
			fmt.Sprintf("%d", r.NoAC.PeakQueue),
			fmt.Sprintf("%d", r.NoAC.EndQueue),
			W(r.AC.TotalW),
			W(r.NoAC.TotalW),
		)
	}
	return t
}
