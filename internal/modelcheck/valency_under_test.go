package modelcheck

import (
	"testing"

	"detobj/internal/catalogue"
)

// TestValencyUnderNilWrapMatchesPlain: on every E20 object, a nil wrap
// must degenerate to AnalyzeValency exactly — same tree, same counts,
// same verdicts. This is the full-persistence baseline E20 prints in
// its first column.
func TestValencyUnderNilWrapMatchesPlain(t *testing.T) {
	for _, r := range catalogue.E20() {
		plain, err := AnalyzeValency(r.Config, 0)
		if err != nil {
			t.Fatalf("%s AnalyzeValency: %v", r.Name, err)
		}
		under, err := AnalyzeValencyUnder(r.Config, nil, 0)
		if err != nil {
			t.Fatalf("%s AnalyzeValencyUnder(nil): %v", r.Name, err)
		}
		if plain.Configs != under.Configs || plain.Executions != under.Executions ||
			plain.Bivalent != under.Bivalent || plain.Critical != under.Critical ||
			plain.Agreement != under.Agreement {
			t.Errorf("%s: nil wrap diverges from plain analysis:\nplain %+v\nunder %+v", r.Name, plain, under)
		}
	}
}

// TestValencyUnderAmnesiacSplitsPlainFromRecoverable (E20): across the
// E20 grid, the plain-TAS protocol must exhibit a disagreeing
// execution while the recoverable-TAS protocol agrees everywhere — the
// consensus-power drop of Ovens 2024.
func TestValencyUnderAmnesiacSplitsPlainFromRecoverable(t *testing.T) {
	for _, r := range catalogue.E20()[:2] { // plain and recoverable TAS
		disagreed := false
		for _, p := range catalogue.E20Grid() {
			rep, err := AnalyzeValencyUnder(r.Config, p.Adversary, 0)
			if err != nil {
				t.Fatalf("%s %v: %v", r.Name, p, err)
			}
			disagreed = disagreed || !rep.Agreement
		}
		if disagreed == r.Agreement {
			t.Errorf("%s: disagreed somewhere = %v, want %v", r.Name, disagreed, !r.Agreement)
		}
	}
}

// TestValencyUnderDeterministic: the report of an adversarial analysis
// is a pure function of (factory, wrap parameters) — two runs agree on
// every count and on the DFS-first disagreement schedule.
func TestValencyUnderDeterministic(t *testing.T) {
	f, p := catalogue.E20()[2].Config, catalogue.Point{Victim: 0, CrashAt: 3} // plain WRN_2
	a, err := AnalyzeValencyUnder(f, p.Adversary, 0)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := AnalyzeValencyUnder(f, p.Adversary, 0)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.Configs != b.Configs || a.Executions != b.Executions || a.Agreement != b.Agreement {
		t.Errorf("adversarial valency not deterministic:\nfirst  %+v\nsecond %+v", a, b)
	}
	if len(a.DisagreementSchedule) != len(b.DisagreementSchedule) {
		t.Errorf("disagreement schedules differ: %v vs %v", a.DisagreementSchedule, b.DisagreementSchedule)
	}
	for i := range a.DisagreementSchedule {
		if a.DisagreementSchedule[i] != b.DisagreementSchedule[i] {
			t.Errorf("disagreement schedules differ at %d: %v vs %v", i, a.DisagreementSchedule, b.DisagreementSchedule)
		}
	}
}
