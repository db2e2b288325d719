package experiments

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eprons/internal/golden"
)

// fig10Cells runs a small Fig 10 sweep and renders it in figdump's exact
// format (%.17g round-trips float64 exactly), so equality here is
// bit-identity of the figure output.
func fig10Cells(t *testing.T, cfg NetLatencyConfig) string {
	t.Helper()
	rows, err := Fig10AggregationLatency([]int{0, 3}, []float64{0.20}, cfg)
	if err != nil {
		t.Fatalf("fig10: %v", err)
	}
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "fig10 %d %.17g %.17g %.17g %.17g %d\n",
			r.Level, r.BgUtil, r.MeanS, r.P95S, r.P99S, r.Dropped)
	}
	return b.String()
}

// TestFig10ECMPGolden pins the ECMP query-route path (on-demand pair
// resolution with the fluid background engine) at k=4 and k=10. The k=10
// fabric (250 hosts) puts background flow IDs 50000–50089 inside the
// 62,500-ID query-pair space, so its rows also pin the background-ID
// overlap rule (legacyBgIDMaxPairs): those elephants ride their pair's
// ECMP route, not their placed one. k=4 cannot see that overlap.
func TestFig10ECMPGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run packet simulations")
	}
	var b strings.Builder
	for _, k := range []int{4, 10} {
		fmt.Fprintf(&b, "# k=%d\n", k)
		b.WriteString(fig10Cells(t, NetLatencyConfig{DurationS: 0.4, K: k, Fluid: true, ECMPQueries: true}))
	}
	golden.Check(t, filepath.Join("testdata", "golden", "fig10_ecmp.txt"), b.String())
}

// rowsDump renders every field of each row, one row per line: floats at
// %.17g (which round-trips float64 exactly), integers at %d, strings at
// %q, booleans at %t, nested structs as dotted names. Equality of two dumps is bit-identity of the
// sweep output.
func rowsDump[T any](t *testing.T, rows []T) string {
	t.Helper()
	var fields []string
	var dump func(prefix string, v reflect.Value)
	dump = func(prefix string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), prefix+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Struct:
				dump(name+".", f)
			case reflect.Float64:
				fields = append(fields, fmt.Sprintf("%s=%.17g", name, f.Float()))
			case reflect.Int, reflect.Int64:
				fields = append(fields, fmt.Sprintf("%s=%d", name, f.Int()))
			case reflect.String:
				fields = append(fields, fmt.Sprintf("%s=%q", name, f.String()))
			case reflect.Bool:
				fields = append(fields, fmt.Sprintf("%s=%t", name, f.Bool()))
			default:
				t.Fatalf("rowsDump: field %s has unsupported kind %v", name, f.Kind())
			}
		}
	}
	var b strings.Builder
	for _, r := range rows {
		fields = fields[:0]
		dump("", reflect.ValueOf(r))
		b.WriteString(strings.Join(fields, " ") + "\n")
	}
	return b.String()
}

// robustnessGolden pins a robustness sweep's rows to a committed file.
func robustnessGolden[T any](t *testing.T, name string, rows []T) {
	t.Helper()
	golden.Check(t, filepath.Join("testdata", "golden", name), rowsDump(t, rows))
}
