package sim

import (
	"errors"
	"fmt"
	"reflect"
)

// replay.go re-executes programs against a recorded run: the one path by
// which both VerifyReplay and a Stepper's rewind (stepper.go) run a
// program again. The record is the run's trace. A cursor walks one
// process's events in it, and while the cursor is on, the process's Ctx
// calls are answered from the record inside the coroutine instead of
// yielding to a driver: a step's recorded response comes back at once,
// and a mark is checked against the recorded one. At the step that hung
// the process, or the crash that wiped its invocation, the incarnation
// unwinds. So re-executing an incarnation costs one coroutine switch in
// and one out, not one per event. The process yields to its driver only
// where the record stops answering: at the record's end, or at a yield
// the record does not hold, which the driver then judges.

// ErrReplayDivergence is returned by Run (wrapped, with detail) when
// Config.VerifyReplay is set and re-executing a program against the
// recorded trace produced a different behaviour.
var ErrReplayDivergence = errors.New("sim: replay diverged from recorded trace")

// cursor is a process's place in a run's record while the process is
// re-executed against it. It lives in the process's worker, so
// re-executing allocates nothing.
type cursor struct {
	events []Event // the run's trace
	proc   int
	end    int  // the record answers only events before end
	at     int  // the process's next event; len(events) once none is left
	n      int  // the process's events consumed so far
	on     bool // the process's Ctx calls are answered from the record
}

// seek turns c on at process proc's first event, answering the events
// before end.
func (c *cursor) seek(events []Event, proc, end int) {
	c.events, c.proc, c.end, c.at, c.n, c.on = events, proc, end, -1, -1, true
	c.advance()
}

// advance consumes the process's event at c.at.
func (c *cursor) advance() {
	c.n++
	for c.at++; c.at < len(c.events) && c.events[c.at].Proc != c.proc; c.at++ {
	}
}

// records reports whether e records the yield m: the step that applied
// its invocation or the crash that wiped it, or the same mark.
func records(e *Event, m *message) bool {
	if m.kind == msgInvoke {
		if e.Kind != EventStep && e.Kind != EventCrash {
			return false
		}
	} else if e.Kind != m.mark || !reflect.DeepEqual(e.Out, m.out) {
		return false
	}
	return e.Object == m.obj && e.Op == m.inv.Op && sameArgs(e.Args, m.inv.Args)
}

// answer answers the process's yield w.msg from the record, as park
// asks while the cursor is on: a recorded step's response goes to
// w.reply, and a recorded mark is acknowledged. At the step that hung
// the process or the crash that wiped its invocation, the incarnation
// unwinds instead, as an abort would (park panics), and the driver
// consumes that event. answer reports false, so that the process
// yields, where the record stops answering, and to an incarnation
// that is being unwound.
func (w *worker) answer() bool {
	c := &w.cur
	if w.aborting || c.at >= c.end || !records(&c.events[c.at], &w.msg) {
		return false
	}
	e := &c.events[c.at]
	if e.Kind == EventCrash || e.Hang {
		w.aborting = true
		return false
	}
	w.reply = e.Out
	c.advance()
	return true
}

// failf reports a divergence at the cursor's position.
func (c *cursor) failf(format string, args ...any) error {
	pos := "event " + fmt.Sprint(c.n)
	if c.at < len(c.events) {
		pos += " " + c.events[c.at].String()
	}
	return fmt.Errorf("%w: process %d at %s: %s", ErrReplayDivergence, c.proc, pos, fmt.Sprintf(format, args...))
}

// stray reports how the process's last yield m departs from the record
// at the cursor: an invocation or a mark the record does not hold
// there, an end before the record's, or a panic.
func (c *cursor) stray(m *message) error {
	switch m.kind {
	case msgInvoke:
		if c.at == len(c.events) {
			return c.failf("extra invocation %s.%s", m.obj, m.inv.Op)
		}
		switch e := &c.events[c.at]; e.Kind {
		case EventCrash:
			return c.failf("program invoked %s.%s%v, crash wiped a different invocation", m.obj, m.inv.Op, m.inv.Args)
		case EventStep:
			return c.failf("program invoked %s.%s%v", m.obj, m.inv.Op, m.inv.Args)
		default:
			return c.failf("program invoked %s.%s, trace records a %s mark", m.obj, m.inv.Op, e.Kind)
		}
	case msgMark:
		if c.at == len(c.events) {
			return c.failf("extra %s mark on %s.%s", m.mark, m.obj, m.inv.Op)
		}
		return c.failf("program recorded %s mark %s.%s%v -> %v", m.mark, m.obj, m.inv.Op, m.inv.Args, m.out)
	case msgDone:
		left := 0
		for i := c.at; i < len(c.events); i++ {
			if c.events[i].Proc == c.proc {
				left++
			}
		}
		return c.failf("program finished with %d recorded event(s) left", left)
	}
	return c.failf("program panicked: %v", m.out)
}

// verifyReplay re-executes every program against the run's recorded
// trace and reports the first divergence. The simulator's determinism
// story rests on programs being pure functions of their invocation
// results: given the same sequence of object responses, a program must
// issue the same invocations, record the same marks, and return the
// same output. Objects cannot be re-run (they carry consumed state), so
// replay verifies the program side only: each process is re-executed in
// isolation with responses fed from its recorded per-process event
// sequence. A program that consults a wall clock, an unseeded random
// source, or mutable state smuggled across runs in a closure will issue
// a different invocation or output and fail here.
//
// Processes replay sequentially and independently; the Program contract
// forbids sharing mutable memory between processes, so isolation is
// sound.
func verifyReplay(cfg Config, res *Result) error {
	for id := range cfg.Programs {
		if res.Status[id] == StatusFailed {
			// The original run returned an error; Run never reaches
			// replay with a failed process, but keep the guard local.
			continue
		}
		if err := replayProc(cfg, res, id); err != nil {
			return err
		}
	}
	return nil
}

// replayProc re-executes process id's incarnations against its recorded
// events, each in one switch through the cursor, and judges where each
// ends: at its recorded crash or hang, at the record's end, or off it.
func replayProc(cfg Config, res *Result, id int) error {
	events := res.Trace.Events
	w := getWorker()
	// A divergence return leaves the process parked at its last yield;
	// unwind it before the worker goes back to the pool.
	defer func() {
		if w.parked() {
			w.abort()
		}
		putWorker(w)
	}()
	c := &w.cur
	c.seek(events, id, len(events))
	for inc := 0; ; {
		w.start(id, inc, cfg.Recovery, cfg.Programs[id])
		m := &w.msg
		switch {
		case w.aborting:
			// The cursor unwound the incarnation at its recorded end:
			// a hang, or a crash the run followed by a restart or by
			// nothing.
			e := &events[c.at]
			c.advance()
			if e.Hang {
				if res.Status[id] != StatusHung {
					return c.failf("trace records a hang but process status is %v", res.Status[id])
				}
				return nil
			}
			if c.at == len(events) {
				if res.Status[id] != StatusCrashed {
					return c.failf("trace ends with a crash but process status is %v", res.Status[id])
				}
				return nil
			}
			r := &events[c.at]
			if r.Kind != EventRestart {
				return c.failf("crash followed by %s event, want restart", r.Kind)
			}
			c.advance()
			var ok bool
			if inc, ok = r.Out.(int); !ok {
				return c.failf("restart event carries incarnation %v, want an int", r.Out)
			}
		case c.at == len(events) && m.kind == msgInvoke && res.Status[id] == StatusStopped:
			// The run stopped with this invocation pending; the replay
			// confirmed everything that was recorded.
			return nil
		case c.at == len(events) && m.kind == msgDone:
			if res.Status[id] != StatusDone {
				return c.failf("program finished but recorded status is %v", res.Status[id])
			}
			if !reflect.DeepEqual(res.Outputs[id], m.out) {
				return c.failf("program output %v, recorded output %v", m.out, res.Outputs[id])
			}
			return nil
		default:
			return c.stray(m)
		}
	}
}

// sameArgs reports whether two argument lists are equal as
// reflect.DeepEqual judges the slices (nil and empty differ, one backing
// array is equal), comparing element by element instead of boxing them.
func sameArgs(a, b []Value) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}
