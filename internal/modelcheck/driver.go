//go:build go1.23

package modelcheck

// driver.go runs the exhaustive engines' scripted simulator runs on a
// coroutine the engine owns (iter.Pull). A run replays its schedule
// prefix under sim.Fixed, whose fallback parks the run once the prefix
// is used up. The engine reads the node's enabled set off the parked
// run and resumes that same run into the node's first child ("the
// carry"); only later siblings and choice branches start a fresh run
// from the root. A depth-first search finishes a carried run at a leaf
// before it starts a sibling, so one run at a time is live and one
// coroutine serves every run of an engine call. See DESIGN.md §5.2.
//
// The build line raises this file's language version to Go 1.23 for
// package iter, as in internal/sim/worker.go.

import (
	"iter"

	"detobj/internal/sim"
)

// runDriver executes the scripted runs of one engine call on a
// coroutine of its own. After start or resume the run is either parked
// at the end of its prefix (parked, with enabled set) or ended (res or
// err set). stop must be called on every return path: it ends a parked
// run, which returns the run's process workers to sim's pool, and exits
// the coroutine.
type runDriver struct {
	f    Factory
	wrap func(inner sim.Scheduler) sim.Scheduler

	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	fixed sim.Fixed    // the prefix scheduler, re-armed per fresh run
	src   scriptSource // the choice script, re-armed per fresh run
	pick  int          // what the parked Next returns when resumed

	parked  bool
	enabled []int // the parked round's enabled set, owned by the caller
	res     *sim.Result
	err     error
}

// newRunDriver returns a driver for f's runs. wrap, when non-nil,
// interposes an adversary around the prefix scheduler once per fresh
// run (see AnalyzeValencyUnder).
func newRunDriver(f Factory, wrap func(inner sim.Scheduler) sim.Scheduler) *runDriver {
	d := &runDriver{f: f, wrap: wrap}
	d.fixed.Fallback = d
	d.next, d.stop = iter.Pull(d.loop)
	return d
}

// loop is the coroutine body: one scripted run per iteration, begun
// when start switches into the coroutine. It returns when stop ends it.
func (d *runDriver) loop(yield func(struct{}) bool) {
	d.yield = yield
	for {
		d.res, d.err = d.run()
		d.parked = false
		if !yield(struct{}{}) {
			return
		}
	}
}

// run builds a fresh configuration and runs it under the prefix
// scheduler and the choice script.
func (d *runDriver) run() (*sim.Result, error) {
	cfg := d.f()
	var s sim.Scheduler = &d.fixed
	if d.wrap != nil {
		s = d.wrap(s)
	}
	cfg.Scheduler = s
	cfg.Choice = &d.src
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, decodeRunError(err)
	}
	return res, nil
}

// Next is the prefix scheduler's fallback. It copies the enabled set,
// since the runtime rewrites v.Enabled every round, and parks the run
// until resume hands it the next id. When start or stop ends the parked
// run instead, it returns Stop.
func (d *runDriver) Next(v sim.View) int {
	d.enabled = append([]int(nil), v.Enabled...)
	d.parked, d.res, d.err = true, nil, nil
	if !d.yield(struct{}{}) {
		return sim.Stop
	}
	return d.pick
}

// start runs the (sched, choices) prefix from the root, in a fresh
// configuration, until it parks or ends. A parked run is ended first.
func (d *runDriver) start(sched, choices []int) {
	if d.parked {
		d.resume(sim.Stop)
	}
	d.fixed.Reset(sched)
	d.src.reset(choices)
	d.next()
}

// resume continues the parked run with process id (or ends it with
// sim.Stop) until it parks again or ends.
func (d *runDriver) resume(id int) {
	d.pick = id
	d.next()
}

// reach drives the run to the node at (sched, choices). With carry the
// node is the first child of the parked run's node, which resume
// carries into with sched's last id; otherwise the node starts fresh.
func (d *runDriver) reach(sched, choices []int, carry bool) {
	if carry {
		d.resume(sched[len(sched)-1])
		return
	}
	d.start(sched, choices)
}
