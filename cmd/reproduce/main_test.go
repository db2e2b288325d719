package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFigureNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	files := map[string]bool{}
	for _, f := range figures {
		if seen[f.name] || files[f.csv] {
			t.Errorf("figure %q (CSV %q) is defined twice", f.name, f.csv)
		}
		seen[f.name], files[f.csv] = true, true
	}
	for _, name := range paperSet {
		if !seen[name] {
			t.Errorf("paper set names unknown figure %q", name)
		}
	}
}

func TestUnknownFigureRejected(t *testing.T) {
	for _, spec := range []string{"7", "10,7", "", "12"} {
		if _, err := lookup(spec); err == nil {
			t.Errorf("lookup(%q) accepted an unknown figure", spec)
		}
	}
	figs, err := lookup("all,twin")
	if err != nil || len(figs) != len(paperSet)+1 {
		t.Fatalf("lookup(all,twin) = %d figures, %v; want %d", len(figs), err, len(paperSet)+1)
	}
}

// TestInstantFigures runs the figures that need no simulation through the
// dispatch path main uses and checks that each prints and writes a
// non-empty table.
func TestInstantFigures(t *testing.T) {
	figs, err := lookup("2,9,14")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	dir := t.TempDir()
	start := time.Now()
	failed, err := run(figs, &opts{w: &b}, dir, false)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("instant figures took %v, want under 1 s", elapsed)
	}
	if err != nil || failed != 0 {
		t.Fatalf("run: %d failed checks, err %v\n%s", failed, err, b.String())
	}
	for _, f := range figs {
		data, err := os.ReadFile(filepath.Join(dir, f.csv+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		// A comment line, a header line and at least one row.
		if lines := strings.Count(string(data), "\n"); lines < 3 {
			t.Errorf("fig %s: CSV has %d lines:\n%s", f.name, lines, data)
		}
	}
	for _, want := range []string{"Fig 2 — scale factor", "Fig 9 — aggregation policies", "Fig 14 — diurnal traces", "2/2 shape checks passed"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, b.String())
		}
	}
}
