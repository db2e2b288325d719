// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each Fig* function returns structured data, and one
// *Table function next to each row type renders it; cmd/reproduce prints
// those tables and bench_test.go reports the data as benchmark metrics, so
// the two surfaces always agree.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a printable result grid.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish comma-separated values (title as
// a comment line), for piping into plotting tools.
func (t *Table) CSV() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Render returns the CSV or aligned-text form of a table.
func Render(t *Table, csv bool) string {
	if csv {
		return t.CSV()
	}
	return t.String()
}

// F formats a float compactly.
func F(v float64) string { return fmt.Sprintf("%.3g", v) }

// Ms formats seconds as milliseconds.
func Ms(v float64) string { return fmt.Sprintf("%.3f", v*1e3) }

// Us formats seconds as microseconds.
func Us(v float64) string { return fmt.Sprintf("%.1f", v*1e6) }

// W formats watts.
func W(v float64) string { return fmt.Sprintf("%.1f", v) }

// Pct formats a fraction as a percentage.
func Pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
