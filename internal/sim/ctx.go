package sim

// Ctx is a process's handle to the simulated world. All interaction with
// shared state goes through Invoke; BeginOp/EndOp annotate the trace with
// the intervals of logical (implemented) operations for the linearizability
// checker. A Ctx is valid only inside the incarnation it was passed to.
type Ctx struct {
	id  int
	inc int
	w   *worker
}

// ID returns the process id (its index in Config.Programs).
func (c *Ctx) ID() int { return c.id }

// Incarnation returns how many times this process has been crash-restarted:
// 0 for the initial execution, k for the k-th restart. Recovery procedures
// and restart-aware programs use it to tell a re-execution from a first
// run; everything else may ignore it.
func (c *Ctx) Incarnation() int { return c.inc }

// Invoke applies one atomic operation to the named shared object and
// returns its result. The process yields to the runtime and resumes when
// the scheduler grants it a step. If the object hangs the process, Invoke
// never returns: the process is parked and its coroutine reclaimed.
func (c *Ctx) Invoke(object, op string, args ...Value) Value {
	w := c.w
	w.msg = message{kind: msgInvoke, obj: object, inv: Invocation{Op: op, Args: args}}
	w.park()
	return w.reply
}

// BeginOp records the start of a logical operation on an implemented
// object. It does not consume a scheduler step.
func (c *Ctx) BeginOp(object, op string, args ...Value) {
	w := c.w
	w.msg = message{kind: msgMark, mark: EventCall, obj: object, inv: Invocation{Op: op, Args: args}}
	w.park()
}

// EndOp records the completion of the logical operation last begun with
// BeginOp, together with its result. It does not consume a scheduler step.
func (c *Ctx) EndOp(object, op string, out Value) {
	w := c.w
	w.msg = message{kind: msgMark, mark: EventReturn, obj: object, inv: Invocation{Op: op}, out: out}
	w.park()
}
