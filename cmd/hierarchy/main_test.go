package main

import (
	"io"
	"strings"
	"testing"

	"detobj/internal/core"
	"detobj/internal/golden"
)

func TestRunAll(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", 10); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{"E2", "E7", "E8", "E10", "separated"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Every E10 data row must end with a successful separation.
	inE10 := false
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "E10") {
			inE10 = true
			continue
		}
		if inE10 && (strings.HasPrefix(line, "Hasse") || strings.HasPrefix(line, "E1")) {
			inE10 = false
		}
		if !inE10 || len(strings.Fields(line)) < 8 {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "n" || strings.HasPrefix(strings.TrimSpace(line), "(") {
			continue
		}
		rows++
		if fields[len(fields)-1] != "true" {
			t.Errorf("separation witness failed: %s", line)
		}
	}
	if rows != 20 { // n = 2..6 × k = 1..4
		t.Errorf("parsed %d E10 rows, want 20", rows)
	}
}

// TestGolden pins every table at the default size.
func TestGolden(t *testing.T) {
	golden.Run(t, "default.golden", "hierarchy", nil, func(w io.Writer) error { return run(w, "all", 12) })
}

// TestRunRejectsBadMax: the tables start at n = 2.
func TestRunRejectsBadMax(t *testing.T) {
	for _, maxN := range []int{1, 0, -1} {
		var b strings.Builder
		if err := run(&b, "all", maxN); err == nil {
			t.Errorf("-max %d accepted", maxN)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "nope", 10); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestE8MatrixShape: the hierarchy table is a strict total order rendered
// with > above the diagonal and < below.
func TestE8MatrixShape(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e8", 8); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	if !strings.Contains(out, ">") || !strings.Contains(out, "<") || !strings.Contains(out, "=") {
		t.Errorf("matrix symbols missing:\n%s", out)
	}
}

func TestSymbol(t *testing.T) {
	cases := map[core.Ordering]string{
		core.Stronger:     ">",
		core.Weaker:       "<",
		core.Equivalent:   "=",
		core.Incomparable: "?",
	}
	for o, want := range cases {
		if got := symbol(o); got != want {
			t.Errorf("symbol(%v) = %q, want %q", o, got, want)
		}
	}
}
