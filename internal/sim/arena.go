package sim

// arena.go provides RunArena, the replay-buffer half of the model
// checker's reduction layer (ROADMAP "order-of-magnitude state-space
// engine"): a DFS over an execution tree replays one short run per
// node, and without the arena every replay pays for a fresh process
// table, scheduling-round buffers and a fresh Result. With an arena
// those live across runs and the steady-state replay allocates only
// what the run's programs and objects allocate themselves.

// RunArena recycles per-run scratch across consecutive calls to Run.
// A caller that replays many configurations back-to-back (the model
// checker's exhaustive engines) stores one arena in every Config it
// builds; Run then reuses the previous run's process table, scratch
// buffers and Result instead of allocating fresh ones.
//
// Constraints:
//   - An arena serves one Run at a time. Concurrent Runs need one
//     arena each (or none), exactly like Schedulers.
//   - Each Run invalidates the previous Run's Result: Outputs, Status,
//     Enabled and Trace.Events alias arena storage. Callers that keep a
//     Result across runs must copy what they need first.
//
// Reuse is safe because Run never returns with a process still holding
// a worker: every return path either observes the incarnation finished
// or aborts it, and the worker goes back to the shared pool, not to the
// arena.
type RunArena struct {
	procs   []procState
	outputs []Value
	status  []ProcStatus
	events  []Event
	res     Result
	rt      runtime
}

// newRuntime builds the per-run runtime state, drawing every reusable
// piece from cfg.Arena when one is supplied.
func newRuntime(cfg Config, n int) *runtime {
	a := cfg.Arena
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
	}
	clear(rt.procs)
	if !cfg.DisableTrace {
		rt.trace.Events = a.events[:0]
	}
	return rt
}
