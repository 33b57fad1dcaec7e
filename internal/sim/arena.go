package sim

// arena.go provides the run buffers a Stepper keeps across the runs it
// starts: without them every run would pay for a fresh process table,
// scheduling-round buffers, step log and Result. With them a
// steady-state run allocates only what the run's programs and objects
// allocate themselves.

// runArena recycles per-run scratch across consecutive runs. It serves
// one run at a time, and each run invalidates the previous run's
// Result: Outputs, Status, Enabled and Trace.Events alias arena
// storage. Reuse is safe because a run never ends with a process still
// holding a worker: every way it ends either observes the incarnation
// finished or aborts it, and the worker goes back to the shared pool,
// not to the arena.
type runArena struct {
	procs   []procState
	outputs []Value
	status  []ProcStatus
	events  []Event
	res     Result
	rt      runtime
}

// newRuntime builds the per-run runtime state, drawing every reusable
// piece from a when it is not nil.
func newRuntime(cfg Config, n int, a *runArena) *runtime {
	if a == nil {
		return &runtime{cfg: cfg, procs: make([]procState, n), enabledIDs: make([]int, 0, n)}
	}
	if cap(a.procs) < n {
		a.procs = make([]procState, n)
	}
	rt := &a.rt
	*rt = runtime{
		cfg:        cfg,
		procs:      a.procs[:n],
		arena:      a,
		enabledIDs: rt.enabledIDs[:0],
		crashed:    rt.crashed[:0],
		log:        rt.log[:0],
	}
	clear(rt.procs)
	if !cfg.DisableTrace {
		rt.trace.Events = a.events[:0]
	}
	return rt
}
