package modelcheck

import (
	"testing"

	"detobj/internal/chaos"
	"detobj/internal/recoverable"
	"detobj/internal/sim"
)

// restartWrap returns the E20-style adversary layer: a fresh amnesiac
// CrashRestart per fresh run, delegating Next to the engine's
// fixed schedule while injecting its own crash and restart faults.
func restartWrap(victim, crashAt, window int) func(inner sim.Scheduler) sim.Scheduler {
	return func(inner sim.Scheduler) sim.Scheduler {
		return chaos.NewCrashRestart(inner, chaos.NewReport(0), victim, crashAt, window)
	}
}

// TestValencyUnderNilWrapMatchesPlain: a nil wrap must degenerate to
// AnalyzeValency exactly — same tree, same counts, same verdicts. This
// is the full-persistence baseline E20 prints in its first column.
func TestValencyUnderNilWrapMatchesPlain(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := recoverable.TwoConsFromPlainTAS(objects, "T", 10, 20)
		return sim.Config{Objects: objects, Programs: progs}
	}
	plain, err := AnalyzeValency(f, 0)
	if err != nil {
		t.Fatalf("AnalyzeValency: %v", err)
	}
	under, err := AnalyzeValencyUnder(f, nil, 0)
	if err != nil {
		t.Fatalf("AnalyzeValencyUnder(nil): %v", err)
	}
	if plain.Configs != under.Configs || plain.Executions != under.Executions ||
		plain.Bivalent != under.Bivalent || plain.Critical != under.Critical ||
		plain.Agreement != under.Agreement {
		t.Errorf("nil wrap diverges from plain analysis:\nplain %+v\nunder %+v", plain, under)
	}
}

// TestValencyUnderAmnesiacSplitsPlainFromRecoverable (E20): under the
// same amnesiac crash-restart sweep, the plain-TAS protocol must
// exhibit a disagreeing execution while the recoverable-TAS protocol
// agrees everywhere — the consensus-power drop of Ovens 2024.
func TestValencyUnderAmnesiacSplitsPlainFromRecoverable(t *testing.T) {
	build := map[string]func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program{
		"plain": recoverable.TwoConsFromPlainTAS,
		"rec":   recoverable.TwoConsFromRecTAS,
	}
	disagreed := map[string]bool{}
	for name, b := range build {
		f := func() sim.Config {
			objects := map[string]sim.Object{}
			progs := b(objects, "T", 10, 20)
			return sim.Config{Objects: objects, Programs: progs}
		}
		for victim := 0; victim < 2; victim++ {
			for crashAt := 0; crashAt <= 6; crashAt++ {
				rep, err := AnalyzeValencyUnder(f, restartWrap(victim, crashAt, 0), 0)
				if err != nil {
					t.Fatalf("%s victim=%d crashAt=%d: %v", name, victim, crashAt, err)
				}
				if !rep.Agreement {
					disagreed[name] = true
				}
			}
		}
	}
	if !disagreed["plain"] {
		t.Error("plain TAS protocol agreed at every amnesiac sweep point; expected a lost race to the restart")
	}
	if disagreed["rec"] {
		t.Error("recoverable TAS protocol disagreed under amnesiac restart; its durable winner journal should prevent that")
	}
}

// TestValencyUnderDeterministic: the report of an adversarial analysis
// is a pure function of (factory, wrap parameters) — two runs agree on
// every count and on the DFS-first disagreement schedule.
func TestValencyUnderDeterministic(t *testing.T) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := recoverable.TwoConsFromPlainWRN2(objects, "W", "a", "b")
		return sim.Config{Objects: objects, Programs: progs}
	}
	a, err := AnalyzeValencyUnder(f, restartWrap(0, 3, 0), 0)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := AnalyzeValencyUnder(f, restartWrap(0, 3, 0), 0)
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
