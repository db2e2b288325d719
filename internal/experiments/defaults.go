package experiments

import (
	"fmt"
	"math"
)

// Shared recovery-knob defaults for the fault/overload/replica sweeps.
//
// Sweep configs are plain structs, so a zero field cannot distinguish
// "caller left it unset" from "caller explicitly wants zero". Historically
// the fill() methods coerced `<= 0` to the default, which made an explicit
// zero (retries off, timer disarmed) unexpressible — and the availability
// and overload sweeps disagreed on the retry default (8 vs 4). Every sweep
// now resolves these knobs through one rule:
//
//	v == 0       → the documented default below
//	v == Disabled (any negative) → explicitly off (0 passed to the cluster)
//	v > 0        → v
const (
	// DefaultRetryBudget is the per-query sub-query re-send budget every
	// sweep uses when RetryBudget is left at its zero value. One constant
	// for all sweeps: comfortably above the deepest drop/timeout cascade a
	// single outage produces, small enough that a truly partitioned query
	// fails fast.
	DefaultRetryBudget = 8

	// DefaultSubQueryTimeoutS arms the aggregator retry timer when
	// SubQueryTimeout is left at its zero value: comfortably above the
	// 30 ms SLA, so congestion alone does not trip it; drops are detected
	// through the simulator's drop notifications long before it fires.
	DefaultSubQueryTimeoutS = 100e-3

	// Disabled is the sentinel that turns an optional recovery knob
	// explicitly off. Any negative value works; the constant documents
	// intent at call sites (RetryBudget: experiments.Disabled).
	Disabled = -1
)

// resolveRetryBudget maps the RetryBudget knob to the cluster config value.
func resolveRetryBudget(v int) int {
	switch {
	case v == 0:
		return DefaultRetryBudget
	case v < 0:
		return 0
	}
	return v
}

// resolveSubQueryTimeout maps the SubQueryTimeout knob to the cluster
// config value.
func resolveSubQueryTimeout(v float64) float64 {
	switch {
	case v == 0:
		return DefaultSubQueryTimeoutS
	case v < 0:
		return 0
	}
	return v
}

// field names one numeric config field for nonNegative.
type field struct {
	name string
	v    float64
}

// nonNegative rejects the first negative (or NaN) field of a config. A
// zero field means its default; a negative one is a mistake, and
// replacing it with the default would hide the mistake.
func nonNegative(config string, fields ...field) error {
	for _, f := range fields {
		if f.v < 0 || math.IsNaN(f.v) {
			return fmt.Errorf("experiments: %s.%s = %g: want a positive value, or 0 for the default", config, f.name, f.v)
		}
	}
	return nil
}
