// Package golden compares rendered test output against committed golden
// files. Run a test with -update to rewrite its files from the current
// output; without it a mismatch fails the test at the first differing
// line.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// Check compares got with the contents of the file at path.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if line, g, w, ok := firstDiff(got, string(want)); !ok {
		t.Errorf("%s: first difference at line %d:\n got: %s\nwant: %s", path, line, g, w)
	}
}

// firstDiff returns the 1-based number and both versions of the first
// line where got and want differ; a side that has run out of lines
// reads as "<EOF>". ok is true when they are equal.
func firstDiff(got, want string) (line int, g, w string, ok bool) {
	if got == want {
		return 0, "", "", true
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	at := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "<EOF>"
	}
	for i := 0; ; i++ {
		if at(gl, i) != at(wl, i) || i >= len(gl) || i >= len(wl) {
			return i + 1, at(gl, i), at(wl, i), false
		}
	}
}
