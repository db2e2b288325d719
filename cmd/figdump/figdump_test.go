package main

import (
	"path/filepath"
	"strings"
	"testing"

	"eprons/internal/golden"
)

// TestDumpGolden pins figdump's output, packet-only and with the hybrid
// fluid background engine, to the committed files in testdata. Any change
// to the event scheduler, the packet pipeline, routing or the planner
// that moves a figure by one ulp fails here; an intentional change reruns
// with -update and says why.
func TestDumpGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fluid bool
	}{
		{"plain", false},
		{"fluid", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			if err := dump(&b, tc.fluid); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", tc.name+".txt"), b.String())
		})
	}
}
