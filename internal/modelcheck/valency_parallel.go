package modelcheck

import (
	"sync/atomic"

	"detobj/internal/par"
)

// vnode is one node of the valency split tree. The split phase expands
// the top of the execution tree breadth-first; nodes end up in exactly
// one state: internal (kids set), leaf (vals set), error (err set), or
// open — an unexpanded frontier root handed to a worker (subIdx names
// its result slot).
type vnode struct {
	sched  []int
	kids   []*vnode
	leaf   bool
	vals   map[string]bool
	err    error
	open   bool
	subIdx int
}

// valSub is one worker's result for the subtree under an open frontier
// root: the accumulated statistics, the root's valency set, or the
// error the recursion stopped on.
type valSub struct {
	acc *valencyAcc
	set map[string]bool
	err error
}

// AnalyzeValencyParallel is AnalyzeValency across a worker pool (<= 0
// workers means GOMAXPROCS): the top of the execution tree is expanded
// sequentially into per-subtree roots, workers analyze the subtrees —
// each running its own Factory() configurations — and the sub-reports
// are merged in depth-first order. Every report field is either a
// commutative count, a sorted set, or resolved by tree position (the
// disagreement schedule is the depth-first-earliest one), so the report
// is byte-identical to the sequential engine's. The execution budget is
// shared through an atomic counter; when it trips, the error equals
// Explore's ErrLimit rendering.
func AnalyzeValencyParallel(f Factory, limit, workers int) (*ValencyReport, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	workers = par.Normalize(workers, -1)
	if workers == 1 {
		return AnalyzeValency(f, limit)
	}

	// Phase 1 — split: expand breadth-first until enough open subtree
	// roots exist for the pool. Remaining open nodes all sit at the same
	// depth, so slice order is depth-first order within the level.
	root := &vnode{open: true}
	open := []*vnode{root}
	splitExecs := 0
	d := newRunDriver(f, nil)
	defer d.stop()
	for len(open) > 0 && len(open) < workers*splitFactor {
		var next []*vnode
		for _, n := range open {
			n.open = false
			d.start(n.sched, nil)
			if err := d.err; err != nil {
				var demand choiceDemand
				if asDemand(err, &demand) {
					err = errNondetValency(err)
				}
				n.err = err
				continue
			}
			if !d.parked {
				n.leaf = true
				n.vals = decisionValues(d.res)
				splitExecs++
				continue
			}
			for _, id := range d.enabled {
				kid := &vnode{sched: appendStep(n.sched, id), open: true}
				n.kids = append(n.kids, kid)
				next = append(next, kid)
			}
		}
		open = next
	}
	d.stop() // end the last parked run before the workers start

	// Phase 2 — workers: one valencyRec per frontier root, with the
	// shared execution budget. A tripped budget stops every subtree at
	// its next configuration; errors stay in their slot so the merge
	// can pick the depth-first-earliest one. Each root gets a driver of
	// its own, so ForEach keeps ranking panics by root index; at most
	// one driver per worker is live.
	subs := make([]valSub, len(open))
	var (
		execs   atomic.Int64
		tripped atomic.Bool
	)
	execs.Store(int64(splitExecs))
	for i, n := range open {
		n.subIdx = i
	}
	_ = par.ForEach(len(open), workers, func(i int) error {
		d := newRunDriver(f, nil)
		defer d.stop()
		acc := newValencyAcc()
		set, err := valencyRec(d, open[i].sched, false, acc, valencyHooks{
			gate: func() error {
				if tripped.Load() {
					return errLimitExceeded(limit)
				}
				return nil
			},
			counted: func() error {
				if execs.Add(1) > int64(limit) {
					tripped.Store(true)
					return errLimitExceeded(limit)
				}
				return nil
			},
		})
		subs[i] = valSub{acc: acc, set: set, err: err}
		return nil
	})

	// Phase 3 — merge: recompute the top region's valency sets from the
	// workers' root sets, walking depth-first so the first error and the
	// first disagreement are the sequential ones.
	acc := newValencyAcc()
	var mergeRec func(n *vnode) (map[string]bool, error)
	mergeRec = func(n *vnode) (map[string]bool, error) {
		switch {
		case n.err != nil:
			return nil, n.err
		case n.open:
			sub := subs[n.subIdx]
			if sub.err != nil {
				return nil, sub.err
			}
			acc.configs += sub.acc.configs
			acc.executions += sub.acc.executions
			acc.bivalent += sub.acc.bivalent
			acc.critical += sub.acc.critical
			for v := range sub.acc.values {
				acc.values[v] = true
			}
			if !acc.disagrees && sub.acc.disagrees {
				acc.disagrees = true
				acc.disagreement = sub.acc.disagreement
			}
			return sub.set, nil
		case n.leaf:
			acc.configs++
			acc.executions++
			if acc.executions > limit {
				return nil, errLimitExceeded(limit)
			}
			if len(n.vals) > 1 {
				acc.disagreeAt(n.sched)
			}
			for v := range n.vals {
				acc.values[v] = true
			}
			return n.vals, nil
		default:
			acc.configs++
			union := make(map[string]bool)
			allChildrenUnivalent := true
			for _, kid := range n.kids {
				set, err := mergeRec(kid)
				if err != nil {
					return nil, err
				}
				if len(set) > 1 {
					allChildrenUnivalent = false
				}
				for v := range set {
					union[v] = true
				}
			}
			if len(union) > 1 {
				acc.bivalent++
				if allChildrenUnivalent {
					acc.critical++
				}
			}
			return union, nil
		}
	}
	if _, err := mergeRec(root); err != nil {
		return nil, err
	}
	return acc.report(), nil
}
