package experiments

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"eprons/internal/fattree"
)

// TestECMPUnroutablePairInfeasible: a query pair with no active ECMP path
// fails the cell with ErrInfeasible once the run is over and the
// on-demand resolver has met the pair. Host 0's access link is off; no
// background elephant touches host 0 (in every pod p, host p·4 + p%4
// carries none), so placement still succeeds.
func TestECMPUnroutablePairInfeasible(t *testing.T) {
	ft, err := fattree.New(fattree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	active := ft.AggregationPolicy(0)
	active.SetLink(ft.Graph.LinksAt(ft.Hosts[0])[0], false)
	cfg := NetLatencyConfig{DurationS: 0.2, K: 4, ECMPQueries: true}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	_, _, err = measureNetwork(active, ft, 0.2, cfg, true, 1)
	if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "no active ECMP path host") {
		t.Errorf("err = %v, want ErrInfeasible naming the unroutable pair", err)
	}
}

// TestShardsDeprecated: the retired Shards field accepts 0 and 1, which
// run the same sequential engine, and rejects anything else by name.
func TestShardsDeprecated(t *testing.T) {
	for _, shards := range []int{2, -1} {
		cfg := NetLatencyConfig{DurationS: 0.2, Shards: shards}
		if _, err := Fig10AggregationLatency([]int{0}, []float64{0.2}, cfg); err == nil || !strings.Contains(err.Error(), "Shards") {
			t.Errorf("Fig10 Shards=%d: err = %v, want an error naming Shards", shards, err)
		}
		if _, err := Fig11ScaleFactor([]int{1}, []float64{0.2}, cfg); err == nil || !strings.Contains(err.Error(), "Shards") {
			t.Errorf("Fig11 Shards=%d: err = %v, want an error naming Shards", shards, err)
		}
	}
	run := func(shards int) []Fig10Row {
		rows, err := Fig10AggregationLatency([]int{0, 3}, []float64{0.2}, NetLatencyConfig{DurationS: 0.2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if zero, one := run(0), run(1); !reflect.DeepEqual(zero, one) {
		t.Errorf("Shards=1 rows %+v differ from Shards=0 rows %+v", one, zero)
	}
}

// wantRejected fails unless err rejects the named negative field.
func wantRejected(t *testing.T, field string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "."+field+" = -") {
		t.Errorf("negative %s: err = %v, want a rejection naming the field", field, err)
	}
}

func TestNetLatencyConfigRejectsNegative(t *testing.T) {
	for _, tc := range []struct {
		field string
		cfg   NetLatencyConfig
	}{
		{"DurationS", NetLatencyConfig{DurationS: -1}},
		{"QueryRate", NetLatencyConfig{QueryRate: -40}},
		{"QueryReserveBps", NetLatencyConfig{QueryReserveBps: -1e6}},
	} {
		_, err := Fig11ScaleFactor([]int{1}, []float64{0.2}, tc.cfg)
		wantRejected(t, tc.field, err)
	}
}
