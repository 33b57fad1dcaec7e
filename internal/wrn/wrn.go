// Package wrn implements the paper's deterministic sub-consensus objects:
// WriteAndReadNext (WRN_k) and its one-shot variant 1sWRN_k (paper §3,
// Algorithm 1), the relaxed wrapper RlxWRN built from 1sWRN_k and counters
// (Algorithm 4), and the linearizable implementation of 1sWRN_k from
// (k,k−1)-strong set election and registers (Algorithm 5).
//
// A WRN_k object holds k cells A[0..k-1], initially ⊥. Its single
// operation WRN(i, v) atomically writes v to A[i] and returns the previous
// content of A[(i+1) mod k]. For k = 2 this is a SWAP object (consensus
// number 2); for k ≥ 3 its consensus number is 1, yet it cannot be
// implemented from registers — it sits strictly between registers and
// 2-consensus in synchronization power.
package wrn

import (
	"fmt"
	"strconv"

	"detobj/internal/registers"
	"detobj/internal/sim"
)

// bottomType is the type of Bottom; it prints as ⊥.
type bottomType struct{}

// bottomText is how Bottom prints.
const bottomText = "⊥"

// String implements fmt.Stringer.
func (bottomType) String() string { return bottomText }

// Bottom is the distinguished "no value" ⊥. Cells start at Bottom and no
// process may write it.
var Bottom sim.Value = bottomType{}

// IsBottom reports whether v is the distinguished ⊥ value.
func IsBottom(v sim.Value) bool {
	_, ok := v.(bottomType)
	return ok
}

// Object is a deterministic WRN_k object (Algorithm 1).
type Object struct {
	k     int
	cells []sim.Value
}

// New returns a fresh WRN_k object. k must be at least 2.
func New(k int) *Object {
	if k < 2 {
		panic(fmt.Sprintf("wrn: k = %d, need k >= 2", k))
	}
	cells := make([]sim.Value, k)
	for i := range cells {
		cells[i] = Bottom
	}
	return &Object{k: k, cells: cells}
}

// K returns the object's arity.
func (o *Object) K() int { return o.k }

// Cells returns a copy of the current cell contents, for inspection in
// tests and the model checker.
func (o *Object) Cells() []sim.Value {
	out := make([]sim.Value, o.k)
	copy(out, o.cells)
	return out
}

// Apply implements sim.Object with the single operation "WRN"(i, v):
// A[i] ← v; return the previous A[(i+1) mod k].
func (o *Object) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	i, v := o.validate(inv)
	o.cells[i] = v
	return sim.Respond(o.cells[(i+1)%o.k])
}

func (o *Object) validate(inv sim.Invocation) (int, sim.Value) {
	if inv.Op != "WRN" {
		panic(fmt.Sprintf("wrn: unknown operation %q", inv.Op))
	}
	i, ok := inv.Arg(0).(int)
	if !ok || i < 0 || i >= o.k {
		panic(fmt.Sprintf("wrn: index %v outside [0,%d)", inv.Arg(0), o.k))
	}
	v := inv.Arg(1)
	if v == nil || IsBottom(v) {
		panic("wrn: WRN invoked with ⊥ or nil value")
	}
	return i, v
}

// OneShot is a 1sWRN_k object: a WRN_k object in which each index may be
// used at most once. A second invocation with the same index is illegal
// and hangs the calling process in a manner no process can detect.
type OneShot struct {
	inner *Object
	used  []bool
	uses  []int
}

// NewOneShot returns a fresh 1sWRN_k object. k must be at least 2.
func NewOneShot(k int) *OneShot {
	return &OneShot{inner: New(k), used: make([]bool, k), uses: make([]int, k)}
}

// K returns the object's arity.
func (o *OneShot) K() int { return o.inner.k }

// Cells returns a copy of the current cell contents.
func (o *OneShot) Cells() []sim.Value { return o.inner.Cells() }

// Invocations returns how many WRN operations were attempted with index i
// (including the one that hung, if any). Tests use it to verify the
// legal-use claims of Algorithm 4.
func (o *OneShot) Invocations(i int) int { return o.uses[i] }

// Apply implements sim.Object: as Object.Apply, but a repeated index hangs
// the caller.
func (o *OneShot) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	i, _ := o.inner.validate(inv)
	o.uses[i]++
	if o.used[i] {
		return sim.HangCaller()
	}
	o.used[i] = true
	return o.inner.Apply(env, inv)
}

// Ref is a typed handle to a WRN_k or 1sWRN_k object registered under Name.
type Ref struct {
	Name string
}

// WRN applies WRN(i, v) as one atomic step and returns its result, which
// is either a previously written value or Bottom.
func (r Ref) WRN(ctx *sim.Ctx, i int, v sim.Value) sim.Value {
	return ctx.Invoke(r.Name, "WRN", i, v)
}

// Operator is anything providing the WRN operation: the atomic object
// handle (Ref) or the Algorithm 5 implementation (Impl). Higher layers —
// the relaxed wrapper, Algorithm 3 — are written against this interface,
// so implemented objects substitute for atomic ones.
type Operator interface {
	WRN(ctx *sim.Ctx, i int, v sim.Value) sim.Value
}

// Relaxed is the relaxed WRN_k of Algorithm 4: a 1sWRN_k object protected
// by one flag counter per index. RlxWRN(i, v) increments A[i]'s counter,
// reads it, and forwards to 1sWRN only if it read exactly 1 — the flag
// principle guarantees the one-shot object is used legally (Claims 19–20).
// Otherwise it gives up and returns ⊥.
type Relaxed struct {
	wrn      Operator
	counters []registers.CounterRef
}

// NewRelaxed registers a fresh 1sWRN_k object under name and k counters
// under name+".cnt", and returns the relaxed handle. It also returns the
// underlying OneShot object so tests can inspect legal use.
func NewRelaxed(objects map[string]sim.Object, name string, k int) (Relaxed, *OneShot) {
	one := NewOneShot(k)
	objects[name] = one
	return NewRelaxedOver(objects, name+".cnt", k, Ref{Name: name}), one
}

// NewRelaxedOver builds the relaxed wrapper of Algorithm 4 on top of an
// arbitrary 1sWRN operator — the atomic object or an Algorithm 5
// implementation — registering only the k flag counters under the name
// prefix.
func NewRelaxedOver(objects map[string]sim.Object, name string, k int, op Operator) Relaxed {
	return Relaxed{wrn: op, counters: registers.AddCounterArray(objects, name, k)}
}

// RlxWRN performs the relaxed operation of Algorithm 4. It takes three
// atomic steps on the fast path (inc, read, WRN) and two when it gives up.
func (r Relaxed) RlxWRN(ctx *sim.Ctx, i int, v sim.Value) sim.Value {
	r.counters[i].Inc(ctx)
	if c := r.counters[i].Read(ctx); c == 1 {
		return r.wrn.WRN(ctx, i, v)
	}
	return Bottom
}

// K returns the arity of the underlying object.
func (r Relaxed) K() int { return len(r.counters) }

// StateKey serializes the cell contents (for the model checker), as
// fmt.Sprint renders the cell slice.
func (o *Object) StateKey() string {
	var buf [64]byte
	return string(appendCellsKey(buf[:0], o.cells))
}

// appendCellsKey appends cells as fmt.Sprint renders a []sim.Value:
// space-separated inside brackets, with ⊥ written directly instead of
// through its String method.
func appendCellsKey(dst []byte, cells []sim.Value) []byte {
	dst = append(dst, '[')
	for i, c := range cells {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if IsBottom(c) {
			dst = append(dst, bottomText...)
		} else {
			dst = sim.AppendSprint(dst, c)
		}
	}
	return append(dst, ']')
}

// AppendStateSig implements sim.StateSigner: the cell contents, in
// index order, tag-delimited (see internal/sim/signature.go).
func (o *Object) AppendStateSig(dst []byte) []byte {
	for _, c := range o.cells {
		dst = sim.AppendValueSig(dst, c)
	}
	return dst
}

// CloneObject returns a deep copy (for the model checker).
func (o *Object) CloneObject() sim.Object {
	return &Object{k: o.k, cells: o.Cells()}
}

// Reset returns the object in place to its constructed state, every cell ⊥.
func (o *Object) Reset() {
	for i := range o.cells {
		o.cells[i] = Bottom
	}
}

// StateKey serializes cells plus per-index use flags (for the model
// checker), as fmt renders the two slices back to back.
func (o *OneShot) StateKey() string {
	var buf [64]byte
	b := append(appendCellsKey(buf[:0], o.inner.cells), '[')
	for i, u := range o.used {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendBool(b, u)
	}
	return string(append(b, ']'))
}

// AppendStateSig implements sim.StateSigner: the inner cells plus the
// per-index attempt counters. The counters (not just the used flags)
// are part of the state because Invocations exposes them.
func (o *OneShot) AppendStateSig(dst []byte) []byte {
	dst = o.inner.AppendStateSig(dst)
	for _, u := range o.uses {
		dst = sim.AppendIntSig(dst, u)
	}
	return dst
}

// CloneObject returns a deep copy (for the model checker).
func (o *OneShot) CloneObject() sim.Object {
	return &OneShot{
		inner: o.inner.CloneObject().(*Object),
		used:  append([]bool(nil), o.used...),
		uses:  append([]int(nil), o.uses...),
	}
}

// Reset returns the object in place to its constructed state.
func (o *OneShot) Reset() {
	o.inner.Reset()
	clear(o.used)
	clear(o.uses)
}
