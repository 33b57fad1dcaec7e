package modelcheck

import (
	"errors"
	"reflect"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/sim"
)

// TestValencySwapConsensus (E11): the SWAP-based 2-consensus protocol
// agrees in EVERY execution, its initial configuration is bivalent, and a
// critical configuration exists — the shape of Herlihy's argument.
func TestValencySwapConsensus(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromSwap(objects, "C", 10, 20)
		return sim.Config{Objects: objects, Programs: progs}
	}
	rep, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatalf("AnalyzeValency: %v", err)
	}
	if !rep.Agreement {
		t.Fatalf("disagreement in a SWAP consensus execution: schedule %v", rep.DisagreementSchedule)
	}
	if len(rep.Values) != 2 {
		t.Errorf("decision values = %v, want both 10 and 20 reachable", rep.Values)
	}
	if rep.Bivalent == 0 {
		t.Error("no bivalent configuration; the initial configuration must be bivalent")
	}
	if rep.Critical == 0 {
		t.Error("no critical configuration found")
	}
	if rep.Executions == 0 || rep.Configs <= rep.Executions {
		t.Errorf("implausible tree: %+v", rep)
	}
}

// TestValencyWRN2Consensus: the same protocol built on WRN_2 (Algorithm 2
// with k = 2) also agrees in every execution.
func TestValencyWRN2Consensus(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromWRN2(objects, "W", "a", "b")
		return sim.Config{Objects: objects, Programs: progs}
	}
	rep, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatalf("AnalyzeValency: %v", err)
	}
	if !rep.Agreement {
		t.Fatalf("disagreement: schedule %v", rep.DisagreementSchedule)
	}
	if len(rep.Values) != 2 {
		t.Errorf("values = %v", rep.Values)
	}
}

// TestValencyLimitBoundary pins AnalyzeValency's budget at the exact
// boundary: at limit == executions the full report comes back, and one
// below it fails with the canonical ErrLimit rendering.
func TestValencyLimitBoundary(t *testing.T) {
	f := counterFactory(3, 2)
	want, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeValency(f, want.Executions)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("limit=%d: (%+v, %v), want (%+v, nil)", want.Executions, got, err, want)
	}
	limit := want.Executions - 1
	if _, err := AnalyzeValency(f, limit); !errors.Is(err, ErrLimit) || err.Error() != errLimitExceeded(limit).Error() {
		t.Errorf("limit=%d: err = %v, want %v", limit, err, errLimitExceeded(limit))
	}
}

// TestValencyTASConsensus: and on test-and-set.
func TestValencyTASConsensus(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromTAS(objects, "T", 1, 2)
		return sim.Config{Objects: objects, Programs: progs}
	}
	rep, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatalf("AnalyzeValency: %v", err)
	}
	if !rep.Agreement {
		t.Fatalf("disagreement: schedule %v", rep.DisagreementSchedule)
	}
}

// TestValencyNaiveThreeProcessBreaks (E11 negative control): reusing
// WRN_2 indices for a third process yields disagreeing executions — SWAP
// has consensus number exactly 2.
func TestValencyNaiveThreeProcessBreaks(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{"a", "b", "c"})
		return sim.Config{Objects: objects, Programs: progs}
	}
	rep, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatalf("AnalyzeValency: %v", err)
	}
	if rep.Agreement {
		t.Fatal("the naive 3-process protocol agreed everywhere; expected a disagreement witness")
	}
	if len(rep.DisagreementSchedule) == 0 {
		t.Error("no disagreement schedule recorded")
	}
}

// TestValencyRejectsNondeterminism: valency analysis is defined for
// deterministic protocols only.
func TestValencyRejectsNondeterminism(t *testing.T) {
	f := coinFactory(1, 1)
	if _, err := AnalyzeValency(f, 0); err == nil {
		t.Error("nondeterministic configuration accepted")
	}
}

// TestValencyCellConsensus: an n-bounded consensus cell trivially solves
// consensus for 3 processes with zero bivalent configurations beyond...
// the initial configuration is already bivalent (the first scheduled
// process fixes the decision), and every execution agrees.
func TestValencyCellConsensus(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.NConsFromCell(objects, "cell", []sim.Value{7, 8, 9})
		return sim.Config{Objects: objects, Programs: progs}
	}
	rep, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatalf("AnalyzeValency: %v", err)
	}
	if !rep.Agreement {
		t.Fatalf("disagreement: %v", rep.DisagreementSchedule)
	}
	if len(rep.Values) != 3 {
		t.Errorf("values = %v, want 3 reachable decisions", rep.Values)
	}
	if rep.Critical == 0 {
		t.Error("no critical configuration (the initial one must be critical)")
	}
}
