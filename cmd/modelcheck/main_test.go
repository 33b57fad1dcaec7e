package main

import (
	"io"
	"strings"
	"testing"

	"detobj/internal/golden"
)

// TestGolden pins the stdout of `modelcheck` and `modelcheck -stats`:
// every E6, E11, E11r, E4r and E20 row, verdicts and counts alike.
func TestGolden(t *testing.T) {
	for _, c := range []struct {
		stats bool
		file  string
		args  []string
	}{
		{false, "all.golden", []string{"-exp", "all"}},
		{true, "all-stats.golden", []string{"-exp", "all", "-stats"}},
	} {
		golden.Run(t, c.file, "modelcheck", c.args, func(w io.Writer) error { return run(w, "all", c.stats) })
	}
}

func TestRunSelection(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e11", false); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(b.String(), "E6") {
		t.Error("e11 selection also ran e6")
	}
	if err := run(&b, "bogus", false); err == nil {
		t.Error("unknown experiment accepted")
	}
}
