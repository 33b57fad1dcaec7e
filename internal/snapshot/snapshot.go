// Package snapshot provides the atomic snapshot object used by Algorithm 5
// and the renaming substrate, in two forms: a primitive snapshot object
// (one atomic step per scan/update, used where the paper simply writes
// "Snapshot(R)") and the classic Afek–Attiya–Dolev–Gafni–Merritt–Shavit
// wait-free implementation from single-writer registers (double collect
// with borrowed embedded scans), which witnesses that snapshots add no
// synchronization power beyond registers.
package snapshot

import (
	"fmt"
	"slices"

	"detobj/internal/linearize"
	"detobj/internal/sim"
)

// Object is an atomic snapshot object over n slots.
type Object struct {
	cells []sim.Value
}

// NewObject returns an n-slot snapshot object with every slot holding
// initial.
func NewObject(n int, initial sim.Value) *Object {
	cells := make([]sim.Value, n)
	for i := range cells {
		cells[i] = initial
	}
	return &Object{cells: cells}
}

// Apply implements sim.Object with operations "update"(i, v) and "scan".
// Scan returns a fresh copy of the slot array.
func (o *Object) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "update":
		i, ok := inv.Arg(0).(int)
		if !ok || i < 0 || i >= len(o.cells) {
			panic(fmt.Sprintf("snapshot: slot %v outside [0,%d)", inv.Arg(0), len(o.cells)))
		}
		o.cells[i] = inv.Arg(1)
		return sim.Respond(nil)
	case "scan":
		out := make([]sim.Value, len(o.cells))
		copy(out, o.cells)
		return sim.Respond(out)
	default:
		panic(fmt.Sprintf("snapshot: unknown operation %q", inv.Op))
	}
}

// Spec is the sequential specification of an n-slot snapshot object
// whose slots start at initial, for checking an implementation's
// "update"/"scan" history with linearize.Check.
func Spec(n int, initial sim.Value) linearize.Spec {
	return linearize.Spec{
		Init: func() any {
			s := make([]sim.Value, n)
			for i := range s {
				s[i] = initial
			}
			return s
		},
		Apply: func(state any, name string, args []sim.Value) (any, sim.Value) {
			cells := state.([]sim.Value)
			switch name {
			case "update":
				next := make([]sim.Value, n)
				copy(next, cells)
				next[args[0].(int)] = args[1]
				return next, nil
			case "scan":
				out := make([]sim.Value, n)
				copy(out, cells)
				return cells, out
			default:
				panic("snapshot: spec applied to op " + name)
			}
		},
		Equal: func(observed, specified sim.Value) bool {
			if observed == nil && specified == nil {
				return true
			}
			a, aok := observed.([]sim.Value)
			b, bok := specified.([]sim.Value)
			return aok && bok && slices.Equal(a, b)
		},
	}
}

// Ref is a typed handle to a snapshot Object registered under Name.
type Ref struct {
	Name string
}

// Update writes v into slot i (one atomic step).
func (r Ref) Update(ctx *sim.Ctx, i int, v sim.Value) {
	ctx.Invoke(r.Name, "update", i, v)
}

// Scan returns an atomic copy of all slots (one atomic step).
func (r Ref) Scan(ctx *sim.Ctx) []sim.Value {
	return ctx.Invoke(r.Name, "scan").([]sim.Value)
}

// cell is the content of one underlying register of the wait-free
// implementation: the application value, a per-slot sequence number, and
// the embedded scan taken during the update.
type cell struct {
	val  sim.Value
	seq  int
	view []sim.Value
}

// Impl is the AADGMS wait-free snapshot built from n registers. Each slot
// must be updated by at most one process at a time (single writer per
// slot), which holds in every use in this library: slot i is touched only
// by the unique process operating with index i.
type Impl struct {
	n       int
	name    string
	initial sim.Value
}

// NewImpl registers n slot registers under name[0..n-1], all initialized
// to initial, and returns the implementation handle.
func NewImpl(objects map[string]sim.Object, name string, n int, initial sim.Value) Impl {
	for i := 0; i < n; i++ {
		objects[sim.Indexed(name, i)] = newSlotRegister(cell{val: initial})
	}
	return Impl{n: n, name: name, initial: initial}
}

// slotRegister is a register holding a cell value.
type slotRegister struct {
	c cell
}

func newSlotRegister(c cell) *slotRegister { return &slotRegister{c: c} }

// Apply implements sim.Object with "read" -> cell and "write"(cell).
func (r *slotRegister) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "read":
		return sim.Respond(r.c)
	case "write":
		r.c = inv.Arg(0).(cell)
		return sim.Respond(nil)
	default:
		panic(fmt.Sprintf("snapshot: unknown slot operation %q", inv.Op))
	}
}

// N returns the number of slots.
func (s Impl) N() int { return s.n }

func (s Impl) readSlot(ctx *sim.Ctx, i int) cell {
	return ctx.Invoke(sim.Indexed(s.name, i), "read").(cell)
}

func (s Impl) collect(ctx *sim.Ctx) []cell {
	out := make([]cell, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.readSlot(ctx, i)
	}
	return out
}

func values(cs []cell) []sim.Value {
	out := make([]sim.Value, len(cs))
	for i, c := range cs {
		out[i] = c.val
	}
	return out
}

// Scan returns a linearizable snapshot of all slots. It repeatedly
// collects; two identical consecutive collects yield a direct scan, and a
// slot observed to change twice yields a borrowed scan (its embedded view
// was taken entirely within this Scan's interval). Wait-free: after at
// most n+1 re-collects some slot has moved twice.
func (s Impl) Scan(ctx *sim.Ctx) []sim.Value {
	view, _ := s.scan(ctx)
	return view
}

// scan implements Scan and additionally reports whether the view was
// borrowed from a concurrent updater (exposed for white-box tests).
func (s Impl) scan(ctx *sim.Ctx) ([]sim.Value, bool) {
	moved := make([]int, s.n)
	prev := s.collect(ctx)
	for {
		cur := s.collect(ctx)
		same := true
		for i := 0; i < s.n; i++ {
			if cur[i].seq != prev[i].seq {
				same = false
				moved[i]++
				if moved[i] >= 2 {
					borrowed := make([]sim.Value, s.n)
					copy(borrowed, cur[i].view)
					return borrowed, true
				}
			}
		}
		if same {
			return values(cur), false
		}
		prev = cur
	}
}

// Update writes v into slot i. It first takes an embedded Scan, then
// writes (v, seq+1, view) so that concurrent scanners may borrow the view.
func (s Impl) Update(ctx *sim.Ctx, i int, v sim.Value) {
	view := s.Scan(ctx)
	old := s.readSlot(ctx, i)
	next := cell{val: v, seq: old.seq + 1, view: view}
	ctx.Invoke(sim.Indexed(s.name, i), "write", next)
}

// Snapshotter abstracts over the primitive object and the register-based
// implementation so algorithms (e.g. Algorithm 5) can run on either.
type Snapshotter interface {
	// Update writes v into slot i.
	Update(ctx *sim.Ctx, i int, v sim.Value)
	// Scan returns a linearizable view of all slots.
	Scan(ctx *sim.Ctx) []sim.Value
	// N returns the number of slots.
	N() int
}

// N returns the number of slots of the primitive object handle.
func (r ObjectHandle) N() int { return r.Slots }

// ObjectHandle adapts Ref to the Snapshotter interface.
type ObjectHandle struct {
	Ref
	Slots int
}

// NewObjectHandle registers a primitive snapshot object and returns a
// Snapshotter for it.
func NewObjectHandle(objects map[string]sim.Object, name string, n int, initial sim.Value) ObjectHandle {
	objects[name] = NewObject(n, initial)
	return ObjectHandle{Ref: Ref{Name: name}, Slots: n}
}

var (
	_ Snapshotter = Impl{}
	_ Snapshotter = ObjectHandle{}
)
