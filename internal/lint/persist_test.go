package lint

import (
	"strings"
	"testing"
)

// fixtureType finds one classified Recoverable implementor of the shared
// fixture module by its pkgname.Type rendering.
func fixtureType(t *testing.T, name string) *persistType {
	t.Helper()
	loadFixtures(t)
	info := fixtureMod.persistInfo()
	for _, pt := range info.types {
		if pt.name() == name {
			return pt
		}
	}
	t.Fatalf("no Recoverable implementor %s in the fixture module", name)
	return nil
}

func classOf(t *testing.T, pt *persistType, field string) *persistField {
	t.Helper()
	for _, pf := range pt.fields {
		if pf.v.Name() == field {
			return pf
		}
	}
	t.Fatalf("no field %s on %s", field, pt.name())
	return nil
}

// TestAnnotationOverridesInference pins the annotation-beats-inference
// contract of the persistence lattice: persistbad.Cell.tmp is never
// wiped by OnCrash (inference would call it durable), yet its
// //detlint:volatile annotation decides the class — the mismatch is
// persistsplit's ghost-state finding, not a silent reclassification.
// Conversely persistbad.Cell.saved is wiped (inference would call it
// volatile) but stays durable by annotation, surfacing as amnesia.
func TestAnnotationOverridesInference(t *testing.T) {
	cell := fixtureType(t, "persistbad.Cell")

	tmp := classOf(t, cell, "tmp")
	if tmp.wiped {
		t.Errorf("tmp is reported wiped; the fixture's OnCrash never touches it")
	}
	if tmp.class != persistVolatile {
		t.Errorf("tmp class = %s, want volatile: the annotation must override the unwiped inference", tmp.class)
	}

	saved := classOf(t, cell, "saved")
	if !saved.wiped {
		t.Errorf("saved is not reported wiped; the fixture's OnCrash zeroes it")
	}
	if saved.class != persistDurable {
		t.Errorf("saved class = %s, want durable: the annotation must override the wiped inference", saved.class)
	}

	// Unannotated fields fall back to the OnCrash inference.
	count := classOf(t, cell, "count")
	if count.ann != nil || count.class != persistDurable {
		t.Errorf("count: ann=%v class=%s, want no annotation and inferred durable", count.ann, count.class)
	}
}

// TestInterproceduralWipeInference pins that the OnCrash write set
// follows calls within the declaring package: persistok.Store wipes its
// seen field through the clearSeen helper.
func TestInterproceduralWipeInference(t *testing.T) {
	store := fixtureType(t, "persistok.Store")
	if pf := classOf(t, store, "seen"); !pf.wiped || pf.class != persistVolatile {
		t.Errorf("seen: wiped=%v class=%s, want a helper-mediated wipe classified volatile", pf.wiped, pf.class)
	}
	if pf := classOf(t, store, "val"); pf.wiped || pf.class != persistDurable {
		t.Errorf("val: wiped=%v class=%s, want untouched durable", pf.wiped, pf.class)
	}
}

// TestRealTreeClassification pins the real recoverable objects' split:
// the WRN core is all-durable with lastOp/lastResp as its journal, and
// the register's staged buffer is volatile.
func TestRealTreeClassification(t *testing.T) {
	core := fixtureType(t, "recoverable.WRNCore")
	if core.journaled == nil {
		t.Fatal("recoverable.WRNCore carries no //detlint:journaled nomination")
	}
	for _, field := range []string{"k", "cells", "lastOp", "lastResp", "applies"} {
		if pf := classOf(t, core, field); pf.class != persistDurable {
			t.Errorf("WRNCore.%s class = %s, want durable", field, pf.class)
		}
	}
	for _, field := range []string{"lastOp", "lastResp"} {
		if pf := classOf(t, core, field); pf.journal == nil {
			t.Errorf("WRNCore.%s carries no //detlint:journal mark", field)
		}
	}
	reg := fixtureType(t, "recoverable.Register")
	if pf := classOf(t, reg, "buf"); pf.class != persistVolatile || !pf.wiped {
		t.Errorf("Register.buf: class=%s wiped=%v, want wiped volatile", pf.class, pf.wiped)
	}
}

// TestRecoveryRulesPartialRun pins the -rules contract for the
// recovery-safety subset: running only the four persistence rules still
// produces the seeded persistbad/recreadbad/journalbad/restartcovbad
// findings, and allowaudit stays silent about allows naming rules that
// did not run (the wrn negative-control allow names restartcoverage, so
// a run without it must not judge that mark).
func TestRecoveryRulesPartialRun(t *testing.T) {
	loadFixtures(t)
	subset := append(RecoveryAnalyzers(), AnalyzerAllowAudit())
	diags := Run(fixtureMod, subset)
	wantRules := map[string]bool{}
	for _, d := range diags {
		wantRules[d.Rule] = true
		if d.Rule == allowAuditName {
			t.Errorf("recovery-subset run judged an allow stale: %s", d)
		}
		if !strings.Contains(d.Pos.Filename, "testdata") {
			t.Errorf("recovery-subset finding in the real tree: %s", d)
		}
	}
	for _, rule := range []string{"persistsplit", "recoveryreads", "journaldiscipline", "restartcoverage"} {
		if !wantRules[rule] {
			t.Errorf("recovery-subset run produced no %s findings; the bad fixtures seed some", rule)
		}
	}
}
