package consensus

import (
	"fmt"
	"strconv"

	"detobj/internal/sim"
)

// This file implements the classic Common2 objects — FIFO queue and
// fetch&add — the consensus-number-2 family whose completeness question
// (the Common2 conjecture: is every consensus-number-2 object
// implementable from 2-consensus?) the PODC'16 paper refuted. They serve
// as calibration rows for the mechanized Lemma 38 analysis: both must
// expose distinguishing operation races, because both solve 2-process
// consensus.

// Queue is a FIFO queue with "enq"(v) and "deq" operations; deq returns
// the head or nil when empty.
type Queue struct {
	items []sim.Value
	// initial is what Reset restores. Its capacity is its length, so enq
	// always reallocates instead of writing into it, and clones share it.
	initial []sim.Value
}

// NewQueue returns an empty queue, optionally pre-filled with items.
func NewQueue(items ...sim.Value) *Queue {
	items = append([]sim.Value(nil), items...)
	n := len(items)
	return &Queue{items: items[:n:n], initial: items[:n:n]}
}

// Apply implements sim.Object.
func (q *Queue) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "enq":
		v := inv.Arg(0)
		if v == nil {
			panic("consensus: enq of nil")
		}
		q.items = append(q.items, v)
		return sim.Respond(nil)
	case "deq":
		if len(q.items) == 0 {
			return sim.Respond(nil)
		}
		head := q.items[0]
		q.items = q.items[1:]
		return sim.Respond(head)
	default:
		panic(fmt.Sprintf("consensus: unknown queue operation %q", inv.Op))
	}
}

// StateKey serializes the queue contents (for the model checker): each
// item as fmt.Sprint renders it, followed by '|'.
func (q *Queue) StateKey() string {
	var buf [64]byte
	b := buf[:0]
	for _, v := range q.items {
		b = append(sim.AppendSprint(b, v), '|')
	}
	return string(b)
}

// CloneObject returns a deep copy (for the model checker).
func (q *Queue) CloneObject() sim.Object {
	c := NewQueue(q.items...)
	c.initial = q.initial
	return c
}

// Reset returns the queue in place to its constructed contents.
func (q *Queue) Reset() { q.items = q.initial }

// AppendStateSig implements sim.StateSigner: the queue contents in FIFO
// order, with a length prefix so different splits cannot alias.
func (q *Queue) AppendStateSig(dst []byte) []byte {
	dst = sim.AppendIntSig(dst, len(q.items))
	for _, v := range q.items {
		dst = sim.AppendValueSig(dst, v)
	}
	return dst
}

// QueueRef is a typed handle to a Queue registered under Name.
type QueueRef struct {
	Name string
}

// Enq appends v (one atomic step).
func (r QueueRef) Enq(ctx *sim.Ctx, v sim.Value) {
	ctx.Invoke(r.Name, "enq", v)
}

// Deq removes and returns the head, or nil when empty (one atomic step).
func (r QueueRef) Deq(ctx *sim.Ctx) sim.Value {
	return ctx.Invoke(r.Name, "deq")
}

// FetchAdd is a fetch&add register: "fad"(d) adds d and returns the
// previous value.
type FetchAdd struct {
	n       int
	initial int // what Reset restores
}

// NewFetchAdd returns a fetch&add register holding initial.
func NewFetchAdd(initial int) *FetchAdd { return &FetchAdd{n: initial, initial: initial} }

// Apply implements sim.Object.
func (f *FetchAdd) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if inv.Op != "fad" {
		panic(fmt.Sprintf("consensus: unknown fetch&add operation %q", inv.Op))
	}
	d, ok := inv.Arg(0).(int)
	if !ok {
		panic("consensus: fetch&add of non-integer")
	}
	old := f.n
	f.n += d
	return sim.Respond(old)
}

// StateKey serializes the value (for the model checker).
func (f *FetchAdd) StateKey() string { return strconv.Itoa(f.n) }

// CloneObject returns a copy (for the model checker).
func (f *FetchAdd) CloneObject() sim.Object { return &FetchAdd{n: f.n, initial: f.initial} }

// Reset returns the register in place to its initial value.
func (f *FetchAdd) Reset() { f.n = f.initial }

// AppendStateSig implements sim.StateSigner.
func (f *FetchAdd) AppendStateSig(dst []byte) []byte {
	return sim.AppendIntSig(dst, f.n)
}

// FetchAddRef is a typed handle to a FetchAdd registered under Name.
type FetchAddRef struct {
	Name string
}

// FAD adds d and returns the previous value (one atomic step).
func (r FetchAddRef) FAD(ctx *sim.Ctx, d int) int {
	return ctx.Invoke(r.Name, "fad", d).(int)
}

// TwoConsFromQueue builds the classic 2-process consensus protocol from a
// queue pre-filled with a single "winner" token: publish the proposal,
// dequeue; whoever draws the token decides its own proposal, the other
// adopts the winner's (Herlihy 1991).
func TwoConsFromQueue(objects map[string]sim.Object, name string, v0, v1 sim.Value) []sim.Program {
	objects[name+".q"] = NewQueue("winner")
	props := makeProps(objects, name)
	q := QueueRef{Name: name + ".q"}
	mk := func(id int, v sim.Value) sim.Program {
		return func(ctx *sim.Ctx) sim.Value {
			props[id].Write(ctx, v)
			if q.Deq(ctx) == "winner" {
				return v
			}
			return props[1-id].Read(ctx)
		}
	}
	return []sim.Program{mk(0, v0), mk(1, v1)}
}

// TwoConsFromFetchAdd builds 2-process consensus from fetch&add: the
// process that draws 0 wins.
func TwoConsFromFetchAdd(objects map[string]sim.Object, name string, v0, v1 sim.Value) []sim.Program {
	objects[name+".fa"] = NewFetchAdd(0)
	props := makeProps(objects, name)
	fa := FetchAddRef{Name: name + ".fa"}
	mk := func(id int, v sim.Value) sim.Program {
		return func(ctx *sim.Ctx) sim.Value {
			props[id].Write(ctx, v)
			if fa.FAD(ctx, 1) == 0 {
				return v
			}
			return props[1-id].Read(ctx)
		}
	}
	return []sim.Program{mk(0, v0), mk(1, v1)}
}
