package golden

import "testing"

func TestFirstDiff(t *testing.T) {
	for _, tc := range []struct {
		got, want string
		line      int
		g, w      string
		ok        bool
	}{
		{"a\nb\n", "a\nb\n", 0, "", "", true},
		{"a\nb\n", "a\nc\n", 2, "b", "c", false},
		{"a\n", "a\nb\n", 2, "", "b", false},
		{"a\nb", "a\nb\n", 3, "<EOF>", "", false},
	} {
		line, g, w, ok := firstDiff(tc.got, tc.want)
		if line != tc.line || g != tc.g || w != tc.w || ok != tc.ok {
			t.Errorf("firstDiff(%q, %q) = %d %q %q %v, want %d %q %q %v",
				tc.got, tc.want, line, g, w, ok, tc.line, tc.g, tc.w, tc.ok)
		}
	}
}
