package modelcheck

// Parallel exploration engines. Every engine in this file partitions an
// embarrassingly-parallel loop — the execution-tree frontier, the
// per-state pair analysis — across a worker pool while keeping the
// observable output BYTE-IDENTICAL to its sequential twin:
//
//   - workers run their own Factory() configurations, each on a run
//     driver of its own, so simulator state is never shared between
//     goroutines (see the sim package's "Concurrency contract");
//   - results are merged by their position in the canonical depth-first
//     order (schedule/choice key, state key), never by arrival order;
//   - visit callbacks run on the calling goroutine, in the canonical
//     order, so callers need no locking;
//   - the execution budget is enforced through a shared atomic counter
//     that reproduces Explore's ErrLimit errors.
//
// The one documented divergence: when the budget trips, Explore has
// visited exactly `limit` executions before erroring, while
// ExploreParallel may have visited fewer (workers racing past the limit
// abort the in-order stream early). The visited prefix is still a
// prefix of the canonical order, and the returned (count, error) pair
// is identical. None of the repository's exhaustive checks run near
// their budgets.

import (
	"sync"
	"sync/atomic"

	"detobj/internal/par"
	"detobj/internal/sim"
)

// splitFactor is how many subtree roots the frontier split aims to
// produce per worker. More roots mean better load balance (subtrees are
// wildly uneven) at the cost of re-running a few short prefixes.
const splitFactor = 16

// rootChanCap bounds the per-root execution buffer between a worker and
// the merger; workers block (backpressure) when the merger lags.
const rootChanCap = 128

// errAborted unwinds a worker whose work is moot: the merger already
// has its answer (an error or the budget) and tore the pool down.
type abortError struct{}

func (abortError) Error() string { return "modelcheck: exploration aborted" }

// fnode is one node of the split frontier, in depth-first order: an
// unexpanded prefix handed to a worker, a complete execution discovered
// during splitting, or a run error pinned to its tree position.
type fnode struct {
	open           bool
	sched, choices []int
	exec           Execution // leaf payload when !open and err == nil
	err            error     // non-demand run error at this position
}

// splitFrontier expands the execution tree breadth-first — preserving
// depth-first order by replacing each node with its ordered children in
// place — until at least target unexpanded subtree roots exist (or the
// tree is fully enumerated). Each expansion costs one short prefix run.
func splitFrontier(f Factory, target int) []fnode {
	d := newRunDriver(f, nil)
	defer d.stop()
	nodes := []fnode{{open: true}}
	for {
		open := 0
		for _, n := range nodes {
			if n.open {
				open++
			}
		}
		if open == 0 || open >= target {
			return nodes
		}
		next := make([]fnode, 0, 2*len(nodes))
		for _, n := range nodes {
			if !n.open {
				next = append(next, n)
				continue
			}
			d.start(n.sched, n.choices)
			if err := d.err; err != nil {
				var demand choiceDemand
				if asDemand(err, &demand) {
					for c := 0; c < demand.n; c++ {
						next = append(next, fnode{open: true, sched: n.sched, choices: appendStep(n.choices, c)})
					}
					continue
				}
				next = append(next, fnode{err: err})
				continue
			}
			if !d.parked {
				next = append(next, fnode{exec: Execution{
					Schedule: append([]int(nil), n.sched...),
					Choices:  append([]int(nil), n.choices...),
					Result:   d.res,
				}})
				continue
			}
			for _, id := range d.enabled {
				next = append(next, fnode{open: true, sched: appendStep(n.sched, id), choices: n.choices})
			}
		}
		nodes = next
	}
}

// rootStream carries one subtree's executions from its worker to the
// merger: executions arrive on ch in depth-first order, then exactly
// one final status on done (nil for a fully enumerated subtree, the
// subtree's run error, or abortError).
type rootStream struct {
	ch   chan Execution
	done chan error
}

// ExploreParallel enumerates exactly the executions of Explore —
// same visit sequence, same count, same errors — across a pool of
// workers (<= 0 means GOMAXPROCS). The schedule/choice prefix frontier
// is partitioned into subtrees; each worker runs its own Factory()
// configurations, and the merger emits completed executions in the
// canonical depth-first order, so visit is called sequentially on the
// calling goroutine and needs no locking. The execution budget is
// shared across workers through an atomic counter; see the package
// comment in this file for the one divergence on the ErrLimit path.
func ExploreParallel(f Factory, limit, workers int, visit func(e Execution) error) (int, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	workers = par.Normalize(workers, -1)
	if workers == 1 {
		return Explore(f, limit, visit)
	}

	nodes := splitFrontier(f, workers*splitFactor)
	streams := make([]*rootStream, 0, len(nodes))
	var (
		produced atomic.Int64 // executions discovered, split leaves included
		limitHit atomic.Bool
		abortCh  = make(chan struct{})
		abort    sync.Once
		wg       sync.WaitGroup
	)
	closeAbort := func() { abort.Do(func() { close(abortCh) }) }
	openIdx := make([]int, 0, len(nodes)) // node index of each subtree root
	for i, n := range nodes {
		if n.open {
			openIdx = append(openIdx, i)
		} else if n.err == nil {
			produced.Add(1) // split leaves count against the budget
		}
	}
	for range openIdx {
		streams = append(streams, &rootStream{ch: make(chan Execution, rootChanCap), done: make(chan error, 1)})
	}

	// Workers claim subtree roots in increasing index order, so the
	// merger's next root is always the oldest claimed one — streaming
	// stays deadlock-free under channel backpressure.
	var nextRoot atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//detlint:allow nodeterminism worker pool: subtree roots are claimed via an atomic counter and every execution is delivered through its root's own stream, merged by tree position — arrival order is unobservable
		go func() {
			defer wg.Done()
			d := newRunDriver(f, nil)
			defer d.stop()
			for {
				r := int(nextRoot.Add(1) - 1)
				if r >= len(openIdx) {
					return
				}
				n := nodes[openIdx[r]]
				out := streams[r]
				err := exploreDFS(d, n.sched, n.choices, false, func(e Execution) error {
					if produced.Add(1) > int64(limit) {
						limitHit.Store(true)
						closeAbort()
						return abortError{}
					}
					//detlint:allow nodeterminism two-case select: delivery vs. pool teardown; the merger consumes streams strictly in tree order, so which case fires never reaches the output
					select {
					case out.ch <- e:
						return nil
					case <-abortCh:
						return abortError{}
					}
				})
				out.done <- err
				close(out.ch)
				if err != nil {
					if _, aborted := err.(abortError); !aborted {
						// A real run error: deeper exploration of THIS
						// subtree stops (as it would sequentially), but
						// other subtrees keep going — the merger decides
						// whether the error is reachable.
						continue
					}
					return
				}
			}
		}()
	}

	count, retErr := 0, error(nil)
	root := 0
merge:
	for _, n := range nodes {
		switch {
		case n.err != nil:
			retErr = n.err
			break merge
		case !n.open:
			// Budget check before the count moves, mirroring Explore:
			// the returned count is the number of visit calls.
			if count == limit {
				retErr = errLimitExceeded(limit)
				break merge
			}
			count++
			if err := visit(n.exec); err != nil {
				retErr = err
				break merge
			}
		default:
			out := streams[root]
			root++
			for e := range out.ch {
				if count == limit {
					retErr = errLimitExceeded(limit)
					break merge
				}
				count++
				if err := visit(e); err != nil {
					retErr = err
					break merge
				}
			}
			if err := <-out.done; err != nil {
				if _, aborted := err.(abortError); aborted && limitHit.Load() {
					// The budget tripped inside a worker; report it the
					// way Explore does: limit executions visited, then
					// the canonical error.
					count = limit
					retErr = errLimitExceeded(limit)
				} else {
					retErr = err
				}
				break merge
			}
		}
	}
	closeAbort()
	wg.Wait()
	return count, retErr
}

// VerifyAllParallel is VerifyAll on the parallel engine.
func VerifyAllParallel(f Factory, limit, workers int, check func(res *sim.Result) error) (int, error) {
	return ExploreParallel(f, limit, workers, func(e Execution) error {
		if err := check(e.Result); err != nil {
			return verifyErr(e, err)
		}
		return nil
	})
}
