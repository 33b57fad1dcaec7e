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
		"crash-restart", "repeated-restart", "adaptive-restart",
		"control: plain WRN broken",
		"5 seeds swept clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestGolden pins the verbose 20-seed sweep of every scenario at every
// worker count: per-seed buffers are replayed in seed order.
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

// TestRunRejectsUnknownScenario: a scenario the driver does not run,
// the retired native one included, fails loudly instead of sweeping
// nothing.
func TestRunRejectsUnknownScenario(t *testing.T) {
	for _, scenario := range []string{"quantum", "native"} {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			var b strings.Builder
			if err := run(&b, scenario, 0, 1, 0, false); err == nil {
				t.Errorf("unknown scenario %q accepted", scenario)
			}
		})
	}
}

// TestRunScenarioSelectsAdversaries: each accepted -scenario value
// sweeps its own adversaries from -start on, and only those.
func TestRunScenarioSelectsAdversaries(t *testing.T) {
	cases := []struct {
		scenario      string
		want, without []string
	}{
		{"sim", []string{"sim seed 3 crash-during-op", "sim seed 4 composed"},
			[]string{"restart seed"}},
		{"restart", []string{"restart seed 3 crash-restart", "restart seed 4 control: plain WRN broken"},
			[]string{"sim seed"}},
		{"all", []string{"sim seed 3 stall", "restart seed 4 adaptive-restart"}, nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.scenario, func(t *testing.T) {
			var b strings.Builder
			if err := run(&b, c.scenario, 3, 2, 0, false); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := b.String()
			for _, w := range append(c.want, "2 seeds swept clean") {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
			for _, w := range c.without {
				if strings.Contains(out, w) {
					t.Errorf("output contains %q:\n%s", w, out)
				}
			}
		})
	}
}
