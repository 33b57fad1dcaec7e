package recoverable

import (
	"fmt"

	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// Recoverable WRN_k: the paper's WriteAndReadNext object made safe for
// amnesiac crash-restart. The construction follows the standard
// journaled-operation recipe of the recoverable-objects literature:
//
//   - A durable core (WRNCore) holds the k cells together with a
//     per-process journal of the last applied operation id and its
//     response, written in the same atomic step as the cell update. The
//     journal makes "apply" idempotent per operation id: re-applying a
//     journaled operation returns the recorded response without
//     touching the cells.
//   - A volatile per-process response cache (a Scratch) short-circuits
//     re-reads of a completed operation's response without going back
//     to the core. A crash wipes it.
//   - The recovery procedure (WRN.Recovery) re-derives the volatile
//     cache from the durable journal: if the interrupted operation is
//     journaled it completed, so the recorded response is restored to
//     the cache; otherwise the operation never applied and the re-run
//     program simply performs it again.
//
// Operation ids let the journal distinguish "this exact operation
// already applied" from "some earlier operation by this process
// applied"; callers choose them (one-shot workloads conventionally use
// the process id).

// WRNCore is the durable half of the recoverable WRN_k: cells plus the
// per-process operation journal, updated atomically.
//
//detlint:journaled apply commits cell mutation and (opid, response) journal record in one atomic step
type WRNCore struct {
	k     int         //detlint:durable the arity is configuration, fixed at construction
	cells []sim.Value //detlint:durable the shared cells are the non-volatile memory the model posits
	//detlint:journal per proc: last applied operation id — the write-ahead commit record
	lastOp map[int]int //detlint:durable a journal the crash wipes cannot make apply idempotent
	//detlint:journal per proc: the recorded response a re-invocation replays
	lastResp map[int]sim.Value //detlint:durable the re-invocation answer must survive the restart it serves
	applies  map[int]int       //detlint:durable audit counter: times each op id actually mutated the cells, across all incarnations
}

// NewWRNCore returns a fresh durable core with k cells at ⊥.
//
//detlint:allow facadeparity the core is an internal half of the construction; callers go through NewWRN / api.NewRecoverableWRN, which registers the core under name+".core"
func NewWRNCore(k int) *WRNCore {
	if k < 2 {
		panic(fmt.Sprintf("recoverable: WRN k = %d, need k >= 2", k))
	}
	cells := make([]sim.Value, k)
	for i := range cells {
		cells[i] = wrn.Bottom
	}
	return &WRNCore{
		k:        k,
		cells:    cells,
		lastOp:   make(map[int]int),
		lastResp: make(map[int]sim.Value),
		applies:  make(map[int]int),
	}
}

// K returns the core's arity.
func (c *WRNCore) K() int { return c.k }

// Cells returns a copy of the durable cell contents.
func (c *WRNCore) Cells() []sim.Value {
	out := make([]sim.Value, c.k)
	copy(out, c.cells)
	return out
}

// ApplyCount returns how many times operation opid actually mutated the
// cells — exactly once for any completed recoverable operation,
// regardless of how many crash-restart re-invocations it survived.
func (c *WRNCore) ApplyCount(opid int) int { return c.applies[opid] }

// Apply implements sim.Object:
//
//	"apply"(opid, i, v): if this process's journal already records opid,
//	    return the recorded response (idempotent re-invocation after a
//	    restart). Otherwise A[i] ← v, journal (opid, previous A[(i+1)
//	    mod k]) for this process, and return that response — one atomic
//	    step covering both cell and journal, the durable commit point.
//	"applied"(opid): whether this process's journal records opid.
//	"lookup"(opid): the journaled response for opid (the recovery read;
//	    ⊥ if not journaled).
func (c *WRNCore) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	switch inv.Op {
	case "apply":
		opid, i, v := c.validate(inv)
		if last, ok := c.lastOp[env.Proc]; ok && last == opid {
			return sim.Respond(c.lastResp[env.Proc])
		}
		r := c.cells[(i+1)%c.k]
		c.cells[i] = v
		c.applies[opid]++
		c.lastOp[env.Proc] = opid
		c.lastResp[env.Proc] = r
		return sim.Respond(r)
	case "applied":
		opid, ok := inv.Arg(0).(int)
		if !ok {
			panic("recoverable: applied needs an int op id")
		}
		last, journaled := c.lastOp[env.Proc]
		return sim.Respond(journaled && last == opid)
	case "lookup":
		opid, ok := inv.Arg(0).(int)
		if !ok {
			panic("recoverable: lookup needs an int op id")
		}
		if last, journaled := c.lastOp[env.Proc]; journaled && last == opid {
			return sim.Respond(c.lastResp[env.Proc])
		}
		return sim.Respond(wrn.Bottom)
	}
	panic(fmt.Sprintf("recoverable: unknown WRN core operation %q", inv.Op))
}

func (c *WRNCore) validate(inv sim.Invocation) (opid, i int, v sim.Value) {
	opid, ok := inv.Arg(0).(int)
	if !ok {
		panic("recoverable: apply needs an int op id")
	}
	i, ok = inv.Arg(1).(int)
	if !ok || i < 0 || i >= c.k {
		panic(fmt.Sprintf("recoverable: apply index %v out of range [0,%d)", inv.Arg(1), c.k))
	}
	v = inv.Arg(2)
	if v == nil || wrn.IsBottom(v) {
		panic("recoverable: apply of ⊥ or nil value")
	}
	return opid, i, v
}

// OnCrash implements sim.Recoverable as a no-op: cells and journal are
// the durable half of the construction by design.
func (c *WRNCore) OnCrash(proc int) {}

// Reset returns the core in place to its constructed state.
func (c *WRNCore) Reset() {
	for i := range c.cells {
		c.cells[i] = wrn.Bottom
	}
	clear(c.lastOp)
	clear(c.lastResp)
	clear(c.applies)
}

// cacheEntry is the volatile response-cache record: which operation the
// process last completed and what it returned. Comparable, so checkers
// can == it.
type cacheEntry struct {
	opid int
	resp sim.Value
}

// WRN is the process-facing recoverable WRN_k handle. It is a value
// type holding only object names and the core pointer for inspection;
// all run state lives in the registered objects.
type WRN struct {
	k       int
	name    string
	core    *WRNCore
	coreRef string
	cache   string
}

// NewWRN registers a recoverable WRN_k's shared objects — the durable
// core under name+".core" and the volatile response cache under
// name+".cache" — and returns the handle.
func NewWRN(objects map[string]sim.Object, name string, k int) WRN {
	core := NewWRNCore(k)
	objects[name+".core"] = core
	objects[name+".cache"] = NewScratch()
	return WRN{k: k, name: name, core: core, coreRef: name + ".core", cache: name + ".cache"}
}

// K returns the object's arity.
func (w WRN) K() int { return w.k }

// Name returns the registration prefix.
func (w WRN) Name() string { return w.name }

// Core returns the durable core, for inspection in tests and drivers.
func (w WRN) Core() *WRNCore { return w.core }

// WRN performs the recoverable WRN(i, v) under operation id opid:
// consult the volatile cache, apply through the journaled core
// (idempotent under re-invocation after a restart), cache the response.
// Safe to re-run from the top in any incarnation.
func (w WRN) WRN(ctx *sim.Ctx, opid, i int, v sim.Value) sim.Value {
	if c := ctx.Invoke(w.cache, "get"); c != nil {
		if e := c.(cacheEntry); e.opid == opid {
			return e.resp
		}
	}
	r := ctx.Invoke(w.coreRef, "apply", opid, i, v)
	ctx.Invoke(w.cache, "put", cacheEntry{opid: opid, resp: r})
	return r
}

// Recovery returns the recovery procedure (for sim.Config.Recovery)
// that re-derives the volatile response cache from the durable journal:
// opidOf names the operation id a given process may have had in flight.
// If the journal records it, the operation completed before the crash
// and its response is restored to the cache; otherwise the crash hit
// before the commit point and the re-run program performs the operation
// afresh.
func (w WRN) Recovery(opidOf func(proc int) int) sim.RecoveryProc {
	return func(ctx *sim.Ctx) {
		opid := opidOf(ctx.ID())
		if ctx.Invoke(w.coreRef, "applied", opid).(bool) {
			r := ctx.Invoke(w.coreRef, "lookup", opid)
			ctx.Invoke(w.cache, "put", cacheEntry{opid: opid, resp: r})
		}
	}
}
