package snapshot

import (
	"fmt"
	"testing"

	"detobj/internal/linearize"
	"detobj/internal/sim"
)

func TestObjectSequential(t *testing.T) {
	o := NewObject(3, 0)
	env := &sim.Env{}
	o.Apply(env, sim.Invocation{Op: "update", Args: []sim.Value{1, "x"}})
	got := o.Apply(env, sim.Invocation{Op: "scan"}).Value.([]sim.Value)
	if got[0] != 0 || got[1] != "x" || got[2] != 0 {
		t.Errorf("scan = %v", got)
	}
	// The returned slice is a copy: mutating it must not affect the object.
	got[0] = "corrupt"
	again := o.Apply(env, sim.Invocation{Op: "scan"}).Value.([]sim.Value)
	if again[0] != 0 {
		t.Error("scan returned an aliased slice")
	}
}

func TestObjectValidation(t *testing.T) {
	for _, inv := range []sim.Invocation{
		{Op: "update", Args: []sim.Value{9, "v"}},
		{Op: "update", Args: []sim.Value{"x", "v"}},
		{Op: "flush"},
	} {
		inv := inv
		t.Run(inv.Op, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%v did not panic", inv)
				}
			}()
			NewObject(2, nil).Apply(&sim.Env{}, inv)
		})
	}
}

func TestObjectHandleThroughRun(t *testing.T) {
	objects := map[string]sim.Object{}
	snap := NewObjectHandle(objects, "S", 2, "init")
	if snap.N() != 2 {
		t.Fatalf("N = %d", snap.N())
	}
	res, err := sim.Run(sim.Config{
		Objects: objects,
		Programs: []sim.Program{func(ctx *sim.Ctx) sim.Value {
			snap.Update(ctx, 0, "a")
			return snap.Scan(ctx)
		}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := res.Outputs[0].([]sim.Value)
	if got[0] != "a" || got[1] != "init" {
		t.Errorf("scan = %v", got)
	}
}

// runImplWorkload runs p processes over an n-slot Impl; process i performs
// `updates` updates on slot i interleaved with scans, all bracketed as
// logical ops on "SNAP". It returns the trace.
func runImplWorkload(t *testing.T, n, updates int, seed int64) sim.Trace {
	t.Helper()
	objects := map[string]sim.Object{}
	s := NewImpl(objects, "R", n, "⊥")
	progs := make([]sim.Program, n)
	for i := 0; i < n; i++ {
		i := i
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			for u := 0; u < updates; u++ {
				v := fmt.Sprintf("p%d.%d", i, u)
				ctx.BeginOp("SNAP", "update", i, v)
				s.Update(ctx, i, v)
				ctx.EndOp("SNAP", "update", nil)

				ctx.BeginOp("SNAP", "scan")
				view := s.Scan(ctx)
				ctx.EndOp("SNAP", "scan", view)
			}
			return nil
		}
	}
	res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sim.NewRandom(seed)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.AllDone() {
		t.Fatalf("status = %v", res.Status)
	}
	return res.Trace
}

// TestImplLinearizable (E12): the AADGMS implementation is linearizable as
// a snapshot object across many random interleavings.
func TestImplLinearizable(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		tr := runImplWorkload(t, 3, 2, seed)
		ops := linearize.Ops(tr, "SNAP")
		if res := linearize.Check(Spec(3, "⊥"), ops); !res.OK {
			t.Fatalf("seed %d: history not linearizable:\n%v", seed, ops)
		}
	}
}

func TestImplSoloScanDirect(t *testing.T) {
	objects := map[string]sim.Object{}
	s := NewImpl(objects, "R", 2, nil)
	res, err := sim.Run(sim.Config{
		Objects: objects,
		Programs: []sim.Program{func(ctx *sim.Ctx) sim.Value {
			s.Update(ctx, 0, "a")
			view, borrowed := s.scan(ctx)
			return []sim.Value{view[0], view[1], borrowed}
		}},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	out := res.Outputs[0].([]sim.Value)
	if out[0] != "a" || out[1] != nil {
		t.Errorf("solo scan = %v", out)
	}
	if out[2] != false {
		t.Error("solo scan borrowed a view")
	}
}

// TestImplBorrowedScan drives a scanner against a writer that updates its
// slot twice mid-scan, forcing the borrowed-view path, and verifies the
// borrowed view is still a legal snapshot.
func TestImplBorrowedScan(t *testing.T) {
	objects := map[string]sim.Object{}
	s := NewImpl(objects, "R", 2, "⊥")
	borrowedSeen := false
	scanner := func(ctx *sim.Ctx) sim.Value {
		view, borrowed := s.scan(ctx)
		if borrowed {
			borrowedSeen = true
		}
		return view
	}
	writer := func(ctx *sim.Ctx) sim.Value {
		for u := 0; u < 4; u++ {
			s.Update(ctx, 1, fmt.Sprintf("w%d", u))
		}
		return nil
	}
	// Alternate scanner and writer steps so the scanner observes slot 1
	// changing at least twice.
	found := false
	for seed := int64(0); seed < 60 && !found; seed++ {
		borrowedSeen = false
		objects = map[string]sim.Object{}
		s = NewImpl(objects, "R", 2, "⊥")
		res, err := sim.Run(sim.Config{
			Objects:   objects,
			Programs:  []sim.Program{scanner, writer},
			Scheduler: sim.NewRandom(seed),
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if borrowedSeen {
			found = true
			view := res.Outputs[0].([]sim.Value)
			if view[0] != "⊥" {
				t.Errorf("borrowed view slot 0 = %v, want ⊥", view[0])
			}
			got, ok := view[1].(string)
			if !ok || got[0] != 'w' {
				t.Errorf("borrowed view slot 1 = %v, want some writer value", view[1])
			}
		}
	}
	if !found {
		t.Error("no schedule exercised the borrowed-scan path")
	}
}

// TestImplWaitFreeStepBound: a scan completes within O(n^2) steps even
// under maximal interference from the scheduler, as guaranteed by the
// moved-twice argument.
func TestImplWaitFreeStepBound(t *testing.T) {
	const n = 4
	objects := map[string]sim.Object{}
	s := NewImpl(objects, "R", n, nil)
	progs := make([]sim.Program, n)
	progs[0] = func(ctx *sim.Ctx) sim.Value { return s.Scan(ctx) }
	for i := 1; i < n; i++ {
		i := i
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			for u := 0; u < 50; u++ {
				s.Update(ctx, i, u)
			}
			return nil
		}
	}
	res, err := sim.Run(sim.Config{
		Objects:   objects,
		Programs:  progs,
		Scheduler: sim.NewRandom(3),
		MaxSteps:  1 << 16,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Status[0] != sim.StatusDone {
		t.Errorf("scanner did not finish under interference: %v", res.Status[0])
	}
}

func TestSlotRegisterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown slot op did not panic")
		}
	}()
	newSlotRegister(cell{}).Apply(&sim.Env{}, sim.Invocation{Op: "cas"})
}
