// Package journalbad seeds the journaldiscipline findings: a durable
// write left pending after the journal append, a response computed off
// to the side of the journal or rebound after the append, a volatile
// journal field, a journaled nomination with no journal, and a journal
// mark on an unnominated type.
package journalbad

import "detobj/internal/sim"

// Log mirrors journalok.Log, but both of its op methods break the
// discipline.
//
//detlint:journaled put is meant to commit cell and journal in one atomic step
type Log struct {
	cell  sim.Value //detlint:durable the shared cell
	count int       //detlint:durable how many puts ever landed
	//detlint:journal per proc: the recorded response
	last map[int]sim.Value //detlint:durable the journal half
}

// OnCrash is a no-op: all fields durable.
func (l *Log) OnCrash(proc int) {}

// Apply journals the response, then keeps mutating durable state: the
// count update is not covered by the append, so a crash between the two
// replays "put" with the journal already committed and applies the
// count twice.
func (l *Log) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	r := l.cell
	l.cell = inv.Arg(0)
	l.last[env.Proc] = r
	l.count++
	return sim.Respond(r)
}

// Aside journals one value but responds with another: a re-invocation
// after restart replays the journaled value and answers differently
// than the original call.
func (l *Log) Aside(env *sim.Env, inv sim.Invocation) sim.Response {
	r := l.cell
	l.cell = inv.Arg(0)
	l.last[env.Proc] = r
	fresh := stamp(env.Proc)
	return sim.Respond(fresh)
}

func stamp(proc int) sim.Value { return proc*2 + 1 }

// Rebind journals r, then rebinds it before responding: the response
// names the journaled variable but no longer holds the journaled value.
func (l *Log) Rebind(env *sim.Env, inv sim.Invocation) sim.Response {
	r := l.cell
	l.cell = inv.Arg(0)
	l.last[env.Proc] = r
	r = inv.Arg(0)
	return sim.Respond(r)
}

// Wiped nominates a journal the crash erases — useless for
// idempotence.
//
//detlint:journaled the nomination is right, the journal's class is not
type Wiped struct {
	data int //detlint:durable the state the journal is supposed to cover
	//detlint:journal a volatile journal protects nothing
	rec map[int]int //detlint:volatile wiped per process on crash
}

// Apply implements sim.Object minimally.
func (w *Wiped) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	return sim.Respond(nil)
}

// OnCrash wipes the so-called journal.
func (w *Wiped) OnCrash(proc int) { delete(w.rec, proc) }

// Empty nominates itself journaled but marks no journal fields.
//
//detlint:journaled nominated with nothing to nominate
type Empty struct {
	x int //detlint:durable some durable state
}

// Apply implements sim.Object minimally.
func (e *Empty) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	return sim.Respond(nil)
}

// OnCrash is a no-op.
func (e *Empty) OnCrash(proc int) {}

// Unnominated carries a journal mark without the type-level
// nomination.
type Unnominated struct {
	//detlint:journal orphaned: the type never opted in
	j map[int]int //detlint:durable would-be journal
}

// Apply implements sim.Object minimally.
func (u *Unnominated) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	return sim.Respond(nil)
}

// OnCrash is a no-op.
func (u *Unnominated) OnCrash(proc int) {}
