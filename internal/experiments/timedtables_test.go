package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// TestTimedTablesDeterministic: the twin what-if and greedy-vs-exact
// tables time their solvers, but the timings go to a summary line, so two
// builds of either table must match cell for cell (and so must the CSVs
// reproduce writes from them).
func TestTimedTablesDeterministic(t *testing.T) {
	twinTable := func() *Table {
		tb, timing, err := TwinCapacityTable(16, []float64{0.01, 0.5}, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(timing, "wall time") {
			t.Fatalf("twin timing summary %q", timing)
		}
		return tb
	}
	ablationTable := func() *Table {
		rows, err := AblationHeuristicVsExact([]int{3, 4}, 1, 100)
		if err != nil {
			t.Fatal(err)
		}
		if timing := AblationTimings(rows); !strings.Contains(timing, "3 flows") {
			t.Fatalf("ablation timing summary %q", timing)
		}
		return AblationTable(rows)
	}
	for name, build := range map[string]func() *Table{"twin": twinTable, "ablation": ablationTable} {
		a, b := build(), build()
		if len(a.Rows) == 0 {
			t.Fatalf("%s: empty table", name)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds differ:\n%s\n%s", name, a.CSV(), b.CSV())
		}
	}
}
