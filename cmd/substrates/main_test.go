package main

import (
	"io"
	"strings"
	"testing"

	"detobj/internal/golden"
)

func TestRunAll(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", 20); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"E12", "E13", "E14", "E15", "E16",
		"snapshot", "renaming",
		"20/20", // every E12/E15 row must be fully valid
		"61/61", // the full crash sweep terminates
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// E14 must report zero violations.
	inE14 := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "E14") {
			inE14 = true
			continue
		}
		if strings.HasPrefix(line, "E15") {
			inE14 = false
		}
		if !inE14 {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] != "n" && fields[2] != "0" {
			t.Errorf("E14 violations in row: %s", line)
		}
	}
}

// TestGolden pins every table at the default size.
func TestGolden(t *testing.T) {
	golden.Run(t, "default.golden", "substrates", nil, func(w io.Writer) error { return run(w, "all", 200) })
}

// TestRunRejectsBadRuns: a sweep of no schedules would print vacuous
// rows such as 0/0 valid.
func TestRunRejectsBadRuns(t *testing.T) {
	for _, runs := range []int{0, -2} {
		var b strings.Builder
		if err := run(&b, "all", runs); err == nil {
			t.Errorf("-runs %d accepted", runs)
		}
	}
}

func TestRunSelection(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e14", 5); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(b.String(), "E12") {
		t.Error("e14 selection also ran e12")
	}
	if err := run(&b, "zzz", 5); err == nil {
		t.Error("unknown experiment accepted")
	}
}
