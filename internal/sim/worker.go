//go:build go1.23

package sim

// worker.go is the simulator's process substrate. Every process
// incarnation runs as a stdlib coroutine (iter.Pull): the process and the
// runtime driving it never run at the same time, and each handoff is a
// direct coroutine switch that bypasses the Go scheduler. A process
// yields at every Invoke, BeginOp and EndOp with a message in its
// worker's mailbox, and the driver (the runtime, or the replay verifier)
// resumes it with a reply.
//
// A fresh coroutine costs about a dozen allocations, so coroutines are
// pooled: a worker runs one incarnation after another, and between
// incarnations it parks idle in a bounded, mutex-guarded pool shared by
// concurrent Runs.
//
// The build line raises this file's language version to Go 1.23, the
// release that added package iter, without raising the module's go
// directive: the benchmark module (bench/go.mod, built with
// -mod=readonly) requires the root module to stay at go 1.22.

import (
	"iter"
	"sync"
)

// maxIdleWorkers bounds the pool: a worker released while this many are
// already idle is stopped, and its goroutine exits.
const maxIdleWorkers = 64

// pool holds the idle workers. It is not a sync.Pool: that drops idle
// items at garbage collection without stopping them, which would leak
// their parked goroutines.
var pool struct {
	mu   sync.Mutex
	idle []*worker
}

type msgKind int

const (
	msgInvoke  msgKind = iota // parked at Invoke, awaiting the response
	msgMark                   // parked at BeginOp or EndOp, awaiting an acknowledgement
	msgDone                   // the incarnation returned out
	msgPanic                  // the incarnation panicked with out
	msgAborted                // the incarnation unwound after an abort
)

// message is what a process hands its driver at a yield, or at its end.
type message struct {
	kind msgKind
	mark EventKind // EventCall or EventReturn, for msgMark
	obj  string
	inv  Invocation
	out  Value // EndOp's result, the incarnation's output, or its panic value
}

// abortSignal is panicked inside a parked Ctx call to unwind an aborted
// process.
type abortSignal struct{}

// worker is a pooled coroutine that runs process incarnations.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	dead  bool // the coroutine exited (runtime.Goexit in a program)

	ctx      Ctx // the running incarnation's handle
	recovery RecoveryProc
	prog     Program

	msg      message // set by the process before each yield
	reply    Value   // set by the driver before each resume
	aborting bool    // the driver unwinds the incarnation instead
}

// getWorker takes an idle worker from the pool, or makes one.
func getWorker() *worker {
	pool.mu.Lock()
	if n := len(pool.idle); n > 0 {
		w := pool.idle[n-1]
		pool.idle[n-1] = nil
		pool.idle = pool.idle[:n-1]
		pool.mu.Unlock()
		return w
	}
	pool.mu.Unlock()
	w := &worker{}
	w.ctx.w = w
	w.next, w.stop = iter.Pull(w.loop)
	return w
}

// putWorker returns a worker whose incarnation has ended to the pool, or
// stops it when the pool is full.
func putWorker(w *worker) {
	if w.dead {
		return
	}
	w.recovery, w.prog, w.reply = nil, nil, nil
	w.msg = message{}
	pool.mu.Lock()
	if len(pool.idle) < maxIdleWorkers {
		pool.idle = append(pool.idle, w)
		pool.mu.Unlock()
		return
	}
	pool.mu.Unlock()
	w.stop()
}

// loop is the coroutine body: it runs the assigned incarnation, then
// yields with the incarnation's end in w.msg and stays parked until the
// driver starts the next one. It returns only when the pool stops it.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.runIncarnation()
		if !yield(struct{}{}) {
			return
		}
	}
}

// runIncarnation runs one incarnation — the recovery step first for a
// restart, then the program from the top — and records how it ended.
func (w *worker) runIncarnation() {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); ok {
				w.msg = message{kind: msgAborted}
				return
			}
			w.msg = message{kind: msgPanic, out: r}
		}
	}()
	if w.ctx.inc > 0 && w.recovery != nil {
		w.recovery(&w.ctx)
	}
	out := w.prog(&w.ctx)
	w.msg = message{kind: msgDone, out: out}
}

// park yields w.msg to the driver and returns when the driver resumes
// the process. An abort, or any Ctx call after one, panics abortSignal
// instead, so the incarnation unwinds without reaching the driver again.
func (w *worker) park() {
	if w.aborting || !w.yield(struct{}{}) || w.aborting {
		panic(abortSignal{})
	}
}

// start runs incarnation inc of process id up to its first yield.
func (w *worker) start(id, inc int, recovery RecoveryProc, prog Program) {
	w.ctx.id, w.ctx.inc = id, inc
	w.recovery, w.prog = recovery, prog
	w.aborting = false
	w.switchIn()
}

// resume replies v to the parked process and runs it to its next yield.
func (w *worker) resume(v Value) {
	w.reply = v
	w.switchIn()
}

// abort unwinds the parked incarnation: its pending Ctx call panics
// abortSignal, deferred calls run, and the worker parks idle again.
func (w *worker) abort() {
	w.aborting = true
	w.switchIn()
}

// parked reports whether the process is waiting for a reply, as opposed
// to having ended.
func (w *worker) parked() bool {
	return w.msg.kind == msgInvoke || w.msg.kind == msgMark
}

// switchIn runs the coroutine until it yields.
func (w *worker) switchIn() {
	if _, ok := w.next(); !ok {
		w.dead = true
	}
}
