package lint

import (
	"bytes"
	"testing"
)

// TestReportByteStable runs the full suite twice over the same module
// and asserts the SARIF log comes out byte-identical: CI diffs it
// between runs, so any map-order leak in an analyzer or in the
// marshaling is a bug here before it is a flake there.
func TestReportByteStable(t *testing.T) {
	loadFixtures(t)
	runs := make([][]byte, 2)
	for i := range runs {
		report := NewReport(fixtureMod.Root, Run(fixtureMod, Analyzers()))
		s, err := report.SARIF(Analyzers())
		if err != nil {
			t.Fatalf("SARIF: %v", err)
		}
		runs[i] = s
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Error("SARIF output differs between two runs over the same module")
	}
}

// TestFindingIDs pins the stable-ID contract: IDs are deterministic,
// unique across the report, and independent of line numbers — two
// identical messages in one file get distinct IDs via the occurrence
// index, and moving a finding down a file must not change its ID.
func TestFindingIDs(t *testing.T) {
	mk := func(line int, rule, file, msg string) Diagnostic {
		d := Diagnostic{Rule: rule, Msg: msg}
		d.Pos.Filename = file
		d.Pos.Line = line
		return d
	}
	a := NewReport("/mod", []Diagnostic{
		mk(10, "r1", "/mod/a.go", "same message"),
		mk(20, "r1", "/mod/a.go", "same message"),
		mk(30, "r2", "/mod/b.go", "other"),
	})
	seen := make(map[string]bool)
	for _, f := range a.Findings {
		if len(f.ID) != 12 {
			t.Errorf("finding ID %q: want 12 hex digits", f.ID)
		}
		if seen[f.ID] {
			t.Errorf("duplicate finding ID %q", f.ID)
		}
		seen[f.ID] = true
	}
	// Same findings on different lines: identical IDs.
	b := NewReport("/mod", []Diagnostic{
		mk(110, "r1", "/mod/a.go", "same message"),
		mk(220, "r1", "/mod/a.go", "same message"),
		mk(330, "r2", "/mod/b.go", "other"),
	})
	for i := range a.Findings {
		if a.Findings[i].ID != b.Findings[i].ID {
			t.Errorf("finding %d: ID changed with line number: %s vs %s",
				i, a.Findings[i].ID, b.Findings[i].ID)
		}
	}
	// Paths are relativized and slash-separated.
	if a.Findings[0].File != "a.go" {
		t.Errorf("file = %q, want module-relative %q", a.Findings[0].File, "a.go")
	}
}
