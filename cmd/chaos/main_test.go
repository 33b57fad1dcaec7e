package main

import (
	"io"
	"strconv"
	"strings"
	"testing"

	"detobj/internal/golden"
)

func TestRunSweep(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "all", 0, 5, 0, false); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"crash-during-op", "crash-recovery", "stall", "adaptive", "composed",
		"native seed 0 ok",
		"crash-restart", "repeated-restart", "adaptive-restart",
		"control: plain WRN broken",
		"5 seeds swept clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestGolden pins the verbose 20-seed sweep of every scenario, the
// native scenario's seeded fault plans included, at every worker count:
// per-seed buffers are replayed in seed order.
func TestGolden(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		golden.Run(t, "seeds20-v.golden", "chaos", []string{"-scenario", "all", "-seeds", "20", "-v", "-parallel", strconv.Itoa(workers)},
			func(w io.Writer) error { return run(w, "all", 0, 20, workers, true) })
	}
}

// TestRunRejectsBadSeeds: an empty sweep would report a vacuous pass,
// and a negative one cannot size its slots.
func TestRunRejectsBadSeeds(t *testing.T) {
	for _, seeds := range []int64{0, -3} {
		var b strings.Builder
		if err := run(&b, "all", 0, seeds, 0, false); err == nil {
			t.Errorf("-seeds %d accepted", seeds)
		}
	}
}

func TestRunRejectsUnknownScenario(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "quantum", 0, 1, 0, false); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
