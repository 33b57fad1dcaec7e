// Package boundedbad seeds every loop shape the boundedloop rule must
// reject on a decision path: the blind spin-await, the loop with no exit
// at all, the channel range, the self-voided counter, a retry that reads
// only atomics, and an unbounded retry hidden in an unexported helper
// that only the callgraph connects to the Propose root.
package boundedbad

import "sync/atomic"

// Obj is a toy decision object; Propose anchors the decision path.
type Obj struct {
	flag atomic.Bool
	cur  atomic.Int64
	ch   chan int
}

// Propose reaches every offending helper.
func (o *Obj) Propose(v int) int {
	o.await()
	o.drain()
	o.reassign(v)
	o.stuck()
	return o.casRetry(v) + o.retry(v)
}

// await spins until shared state changes but never adopts a result:
// lock-free at best, not wait-free.
func (o *Obj) await() {
	for !o.flag.Load() {
	}
}

// drain ranges over a channel, an unbounded source.
func (o *Obj) drain() {
	for range o.ch {
	}
}

// reassign writes its own counter inside the body, voiding the bound.
func (o *Obj) reassign(v int) {
	for i := 0; i < 10; i++ {
		i = v
	}
}

// stuck can neither exit nor observe other processes.
func (o *Obj) stuck() {
	n := 0
	for {
		n++
	}
}

// casRetry retries through atomics alone. A simulated process shares
// state only through objects, so no simulator step means no helping
// read: the atomics are memory no other process steps.
func (o *Obj) casRetry(v int) int {
	for {
		if o.flag.Load() {
			return int(o.cur.Load())
		}
		if o.cur.CompareAndSwap(0, int64(v)) {
			o.flag.Store(true)
			return v
		}
	}
}

// retry can leave via return but never reads shared state, so no
// iteration adopts another process's progress.
func (o *Obj) retry(v int) int {
	for {
		if v > 0 {
			return v
		}
		v++
	}
}
