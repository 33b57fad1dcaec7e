// Package boundedok exercises every progress metric the boundedloop
// rule must accept: bounded counters (including compound conditions),
// finite ranges, helping loops that adopt other processes' progress,
// a justified annotated spin, and — by containing an unbounded loop in
// a method no decision path reaches — the reachability scoping itself.
package boundedok

import "detobj/internal/sim"

// Obj is a toy decision object; Propose anchors the decision path.
type Obj struct {
	names []string
	seen  map[int]int
}

// Propose decides a value using only recognized progress metrics.
func (o *Obj) Propose(ctx *sim.Ctx, v int) int {
	o.Spin()
	t := o.counted(v) + o.ranged()
	return t + o.helping(ctx, v)
}

// counted runs strictly bounded counters, one with a compound condition.
func (o *Obj) counted(v int) int {
	t := 0
	for i := 0; i < len(o.names); i++ {
		t += len(o.names[i])
	}
	for i, found := 0, false; i < 8 && !found; i++ {
		if i == v {
			found = true
		}
		t++
	}
	return t
}

// ranged iterates finite sources: a slice and a map (commutatively).
func (o *Obj) ranged() int {
	t := 0
	for _, s := range o.names {
		t += len(s)
	}
	for _, v := range o.seen {
		t += v
	}
	return t
}

// helping retries until it can adopt a decided value: the body steps
// the shared cell through the simulator and can leave via return, so
// every iteration folds in other processes' progress.
func (o *Obj) helping(ctx *sim.Ctx, v int) int {
	for {
		if d, ok := ctx.Invoke("cell", "read").(int); ok {
			return d
		}
		if ctx.Invoke("cell", "cas", 0, v) == true {
			return v
		}
	}
}

// Spin carries the rule's escape hatch: the justification documents the
// termination argument the analyzer cannot see.
func (o *Obj) Spin() {
	n := 0
	//detlint:allow boundedloop fixture exemption: terminates after one iteration by construction
	for {
		n++
		if n > 0 {
			return
		}
	}
}

// idle is unreachable from any decision method, so its unbounded loop
// is out of the rule's scope.
func (o *Obj) idle() {
	n := 0
	for {
		n++
	}
}
