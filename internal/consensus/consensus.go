// Package consensus provides the classic consensus-number calibration
// objects the paper contrasts WRN with: SWAP (consensus number 2, and
// behaviourally WRN_2, §3), test-and-set (consensus number 2), and
// bounded-use first-value-wins consensus cells (the building block of the
// O(n,k) conjunction objects of PODC'16). It also implements the standard
// 2-process consensus protocols from these objects, which the model
// checker verifies exhaustively (experiments E6 and E11).
package consensus

import (
	"fmt"
	"strconv"

	"detobj/internal/sim"
)

// Swap is a SWAP object: a single cell whose swap operation writes a new
// value and returns the previous one. Initially the cell holds nil, which
// plays the role of ⊥.
type Swap struct {
	v       sim.Value
	initial sim.Value // what Reset restores
}

// NewSwap returns a SWAP object holding initial.
func NewSwap(initial sim.Value) *Swap { return &Swap{v: initial, initial: initial} }

// Apply implements sim.Object with the single operation "swap"(v).
func (s *Swap) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if inv.Op != "swap" {
		panic(fmt.Sprintf("consensus: unknown swap operation %q", inv.Op))
	}
	old := s.v
	s.v = inv.Arg(0)
	return sim.Respond(old)
}

// SwapRef is a typed handle to a Swap registered under Name.
type SwapRef struct {
	Name string
}

// Swap exchanges v for the cell's current value (one atomic step).
func (r SwapRef) Swap(ctx *sim.Ctx, v sim.Value) sim.Value {
	return ctx.Invoke(r.Name, "swap", v)
}

// TestAndSet is a test-and-set object: the first "tas" returns 0 (win) and
// sets the flag; all later ones return 1.
type TestAndSet struct {
	set bool
}

// NewTestAndSet returns a fresh test-and-set object.
func NewTestAndSet() *TestAndSet { return &TestAndSet{} }

// Apply implements sim.Object with the single operation "tas".
func (t *TestAndSet) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if inv.Op != "tas" {
		panic(fmt.Sprintf("consensus: unknown test-and-set operation %q", inv.Op))
	}
	if t.set {
		return sim.Respond(1)
	}
	t.set = true
	return sim.Respond(0)
}

// TASRef is a typed handle to a TestAndSet registered under Name.
type TASRef struct {
	Name string
}

// TAS performs test-and-set; 0 means this caller won.
func (r TASRef) TAS(ctx *sim.Ctx) int {
	return ctx.Invoke(r.Name, "tas").(int)
}

// Cell is an n-bounded first-value-wins consensus cell: the first propose
// fixes the decision, every propose returns it, and proposes beyond the
// budget hang the caller undetectably. Deterministic; its consensus number
// is its budget n (it cannot serve more than n processes, and bounded-use
// objects cannot be drained and reused in a wait-free protocol).
type Cell struct {
	n        int
	used     int
	decided  bool
	decision sim.Value
}

// NewCell returns a consensus cell with a budget of n proposes, n ≥ 1.
func NewCell(n int) *Cell {
	if n < 1 {
		panic(fmt.Sprintf("consensus: cell budget %d < 1", n))
	}
	return &Cell{n: n}
}

// N returns the cell's propose budget.
func (c *Cell) N() int { return c.n }

// Apply implements sim.Object with the single operation "propose"(v).
func (c *Cell) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if inv.Op != "propose" {
		panic(fmt.Sprintf("consensus: unknown cell operation %q", inv.Op))
	}
	v := inv.Arg(0)
	if v == nil {
		panic("consensus: propose of nil value")
	}
	c.used++
	if c.used > c.n {
		return sim.HangCaller()
	}
	if !c.decided {
		c.decided = true
		c.decision = v
	}
	return sim.Respond(c.decision)
}

// CellRef is a typed handle to a Cell registered under Name.
type CellRef struct {
	Name string
}

// Propose submits v and returns the cell's decision.
func (r CellRef) Propose(ctx *sim.Ctx, v sim.Value) sim.Value {
	return ctx.Invoke(r.Name, "propose", v)
}

// StateKey serializes the cell (for the model checker).
func (s *Swap) StateKey() string { return sim.Sprint(s.v) }

// AppendStateSig implements sim.StateSigner.
func (s *Swap) AppendStateSig(dst []byte) []byte {
	return sim.AppendValueSig(dst, s.v)
}

// CloneObject returns a copy (for the model checker).
func (s *Swap) CloneObject() sim.Object { return &Swap{v: s.v, initial: s.initial} }

// Reset returns the cell in place to its initial value.
func (s *Swap) Reset() { s.v = s.initial }

// StateKey serializes the flag (for the model checker).
func (t *TestAndSet) StateKey() string { return strconv.FormatBool(t.set) }

// AppendStateSig implements sim.StateSigner.
func (t *TestAndSet) AppendStateSig(dst []byte) []byte {
	set := 0
	if t.set {
		set = 1
	}
	return sim.AppendIntSig(dst, set)
}

// CloneObject returns a copy (for the model checker).
func (t *TestAndSet) CloneObject() sim.Object { return &TestAndSet{set: t.set} }

// Reset clears the flag in place.
func (t *TestAndSet) Reset() { t.set = false }

// StateKey serializes the decision state (for the model checker) as
// "used/n:decided:decision", each field as fmt.Sprint renders it.
func (c *Cell) StateKey() string {
	var buf [64]byte
	b := append(strconv.AppendInt(buf[:0], int64(c.used), 10), '/')
	b = append(strconv.AppendInt(b, int64(c.n), 10), ':')
	b = append(strconv.AppendBool(b, c.decided), ':')
	return string(sim.AppendSprint(b, c.decision))
}

// CloneObject returns a copy (for the model checker).
func (c *Cell) CloneObject() sim.Object {
	cp := *c
	return &cp
}

// AppendStateSig implements sim.StateSigner.
func (c *Cell) AppendStateSig(dst []byte) []byte {
	dst = sim.AppendIntSig(dst, c.used)
	decided := 0
	if c.decided {
		decided = 1
	}
	dst = sim.AppendIntSig(dst, decided)
	return sim.AppendValueSig(dst, c.decision)
}
