package sim

import (
	"errors"
	"fmt"
	"reflect"
)

// ErrReplayDivergence is returned by Run (wrapped, with detail) when
// Config.VerifyReplay is set and re-executing a program against the
// recorded trace produced a different behaviour.
var ErrReplayDivergence = errors.New("sim: replay diverged from recorded trace")

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

// replayProc re-executes one program against its recorded events, read
// in place from the run's trace.
func replayProc(cfg Config, res *Result, id int) error {
	events := res.Trace.Events
	// at indexes the process's next recorded event (len(events) once none
	// is left), and next counts the process's events consumed so far.
	at, next := -1, -1
	advance := func() {
		next++
		for at++; at < len(events) && events[at].Proc != id; at++ {
		}
	}
	advance()
	w := getWorker()
	// A divergence return leaves the process parked at its last yield;
	// unwind it before the worker goes back to the pool.
	defer func() {
		if w.parked() {
			w.abort()
		}
		putWorker(w)
	}()
	w.start(id, 0, cfg.Recovery, cfg.Programs[id])

	failf := func(format string, args ...any) error {
		pos := "event " + fmt.Sprint(next)
		if at < len(events) {
			pos += " " + events[at].String()
		}
		return fmt.Errorf("%w: process %d at %s: %s", ErrReplayDivergence, id, pos, fmt.Sprintf(format, args...))
	}

	for {
		m := &w.msg
		switch m.kind {
		case msgInvoke:
			if at == len(events) {
				if res.Status[id] == StatusStopped {
					// The run stopped with this invocation pending; the
					// replay confirmed everything that was recorded.
					return nil
				}
				return failf("extra invocation %s.%s", m.obj, m.inv.Op)
			}
			e := &events[at]
			if e.Kind == EventCrash {
				// The run crashed this process while exactly this
				// invocation was pending: wipe the replayed incarnation
				// too, then either confirm the process stayed crashed or
				// re-execute the recorded restart.
				if e.Object != m.obj || e.Op != m.inv.Op || !sameArgs(e.Args, m.inv.Args) {
					return failf("program invoked %s.%s%v, crash wiped a different invocation", m.obj, m.inv.Op, m.inv.Args)
				}
				w.abort()
				advance()
				if at == len(events) {
					if res.Status[id] != StatusCrashed {
						return failf("trace ends with a crash but process status is %v", res.Status[id])
					}
					return nil
				}
				r := &events[at]
				if r.Kind != EventRestart {
					return failf("crash followed by %s event, want restart", r.Kind)
				}
				advance()
				inc, ok := r.Out.(int)
				if !ok {
					return failf("restart event carries incarnation %v, want an int", r.Out)
				}
				w.start(id, inc, cfg.Recovery, cfg.Programs[id])
				continue
			}
			if e.Kind != EventStep {
				return failf("program invoked %s.%s, trace records a %s mark", m.obj, m.inv.Op, e.Kind)
			}
			if e.Object != m.obj || e.Op != m.inv.Op || !sameArgs(e.Args, m.inv.Args) {
				return failf("program invoked %s.%s%v", m.obj, m.inv.Op, m.inv.Args)
			}
			advance()
			if e.Hang {
				if res.Status[id] != StatusHung {
					return failf("trace records a hang but process status is %v", res.Status[id])
				}
				return nil
			}
			w.resume(e.Out)
		case msgMark:
			if at == len(events) {
				return failf("extra %s mark on %s.%s", m.mark, m.obj, m.inv.Op)
			}
			e := &events[at]
			if e.Kind != m.mark || e.Object != m.obj || e.Op != m.inv.Op ||
				!sameArgs(e.Args, m.inv.Args) || !reflect.DeepEqual(e.Out, m.out) {
				return failf("program recorded %s mark %s.%s%v -> %v", m.mark, m.obj, m.inv.Op, m.inv.Args, m.out)
			}
			advance()
			w.resume(nil)
		case msgDone:
			if at < len(events) {
				left := 0
				for i := at; i < len(events); i++ {
					if events[i].Proc == id {
						left++
					}
				}
				return failf("program finished with %d recorded event(s) left", left)
			}
			if res.Status[id] != StatusDone {
				return failf("program finished but recorded status is %v", res.Status[id])
			}
			if !reflect.DeepEqual(res.Outputs[id], m.out) {
				return failf("program output %v, recorded output %v", m.out, res.Outputs[id])
			}
			return nil
		default: // msgPanic
			return failf("program panicked: %v", m.out)
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
