package main

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"detobj/internal/golden"
)

// TestGolden pins the E1, E3, E4, E5 and E9 tables: the `make
// experiments` size at the default worker count, and a small size at
// every worker count the seed sweeps must be independent of.
func TestGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		golden.Run(t, "runs15-seed7.golden", "wrnsim", []string{"-runs", "15", "-seed", "7", "-parallel", strconv.Itoa(workers)},
			func(w io.Writer) error { return run(w, "all", 15, 7, workers) })
	}
	golden.Run(t, "runs1000-seed1.golden", "wrnsim", []string{"-runs", "1000", "-seed", "1"},
		func(w io.Writer) error { return run(w, "all", 1000, 1, 0) })
}

func TestRunSingleExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e1", 10, 1, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if strings.Contains(b.String(), "E3") {
		t.Error("e1 selection also ran e3")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e99", 10, 1, 0); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunRejectsBadRuns: a sweep of no schedules would print vacuous
// rows, and a negative one cannot size its slots.
func TestRunRejectsBadRuns(t *testing.T) {
	for _, runs := range []int{0, -5} {
		var b strings.Builder
		if err := run(&b, "e4", runs, 1, 0); err == nil {
			t.Errorf("-runs %d accepted", runs)
		}
	}
}

// TestE1NoViolations parses the E1 table and asserts the violations column
// is all zeros and max-distinct stays within the bound.
func TestE1NoViolations(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "e1", 50, 3, 0); err != nil {
		t.Fatalf("run: %v", err)
	}
	lines := strings.Split(b.String(), "\n")
	dataRows := 0
	for _, line := range lines {
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[0] == "k" {
			continue
		}
		dataRows++
		if fields[5] != "0" {
			t.Errorf("violations in row: %s", line)
		}
		if fields[3] > fields[4] {
			t.Errorf("max-distinct exceeds bound: %s", line)
		}
	}
	if dataRows != 6 {
		t.Errorf("parsed %d data rows, want 6 (k = 3..8)", dataRows)
	}
}

func TestPickIDsDistinct(t *testing.T) {
	ids := pickIDs(4, 32)
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 32 || seen[id] {
			t.Fatalf("bad ids %v", ids)
		}
		seen[id] = true
	}
}
