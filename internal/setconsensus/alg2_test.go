package setconsensus

import (
	"fmt"
	"testing"

	"detobj/internal/chaos"
	"detobj/internal/sim"
	"detobj/internal/tasks"
)

// proposalsFor builds k pairwise distinct proposals v_i = i*10.
func proposalsFor(k int) ([]sim.Value, map[int]sim.Value) {
	vs := make([]sim.Value, k)
	inputs := map[int]sim.Value{}
	for i := 0; i < k; i++ {
		vs[i] = i * 10
		inputs[i] = vs[i]
	}
	return vs, inputs
}

// runAlg2 runs Algorithm 2 once and returns the result.
func runAlg2(t *testing.T, k int, sched sim.Scheduler) (*sim.Result, map[int]sim.Value) {
	t.Helper()
	objects := map[string]sim.Object{}
	vs, inputs := proposalsFor(k)
	progs := NewAlg2(objects, "W", vs)
	res, err := sim.Run(sim.Config{Objects: objects, Programs: progs, Scheduler: sched})
	if err != nil {
		t.Fatalf("k=%d: Run: %v", k, err)
	}
	return res, inputs
}

// TestAlg2Exhaustive (E1, Corollary 9): Algorithm 2 takes exactly one step
// per process, so enumerating all k! step orders verifies (k−1)-set
// consensus over EVERY execution, for k = 3..6.
func TestAlg2Exhaustive(t *testing.T) {
	for k := 3; k <= 6; k++ {
		task := tasks.SetConsensus{K: k - 1}
		count := 0
		forEachPermutation(k, func(order []int) {
			count++
			res, inputs := runAlg2(t, k, sim.NewFixed(order...))
			if !res.AllDone() {
				t.Fatalf("k=%d order %v: not wait-free: %v", k, order, res.Status)
			}
			o := tasks.OutcomeFromResult(res, inputs)
			if err := task.Check(o); err != nil {
				t.Fatalf("k=%d order %v: %v", k, order, err)
			}
		})
		want := factorial(k)
		if count != want {
			t.Fatalf("k=%d: enumerated %d orders, want %d", k, count, want)
		}
	}
}

// TestAlg2ClaimsFirstAndLast (Claims 4 and 5): under every step order of
// k = 4 processes, the first process to perform WRN decides its own
// proposal, and the last decides the proposal of its successor.
func TestAlg2ClaimsFirstAndLast(t *testing.T) {
	const k = 4
	forEachPermutation(k, func(order []int) {
		res, inputs := runAlg2(t, k, sim.NewFixed(order...))
		first, last := order[0], order[k-1]
		if res.Outputs[first] != inputs[first] {
			t.Fatalf("order %v: first process %d decided %v, want own %v (Claim 4)",
				order, first, res.Outputs[first], inputs[first])
		}
		if want := inputs[(last+1)%k]; res.Outputs[last] != want {
			t.Fatalf("order %v: last process %d decided %v, want successor's %v (Claim 5)",
				order, last, res.Outputs[last], want)
		}
	})
}

// TestAlg2Claim7: a process decides its own proposal whenever its
// successor has not invoked WRN before it.
func TestAlg2Claim7(t *testing.T) {
	const k = 4
	forEachPermutation(k, func(order []int) {
		res, inputs := runAlg2(t, k, sim.NewFixed(order...))
		pos := make([]int, k)
		for p, id := range order {
			pos[id] = p
		}
		for i := 0; i < k; i++ {
			succ := (i + 1) % k
			if pos[succ] > pos[i] && res.Outputs[i] != inputs[i] {
				t.Fatalf("order %v: process %d ran before successor yet decided %v (Claim 7)",
					order, i, res.Outputs[i])
			}
		}
	})
}

// TestAlg2RandomLargeK (E1): random schedules for larger k.
func TestAlg2RandomLargeK(t *testing.T) {
	for k := 3; k <= 8; k++ {
		task := tasks.SetConsensus{K: k - 1}
		for seed := int64(0); seed < 100; seed++ {
			res, inputs := runAlg2(t, k, sim.NewRandom(seed))
			if !res.AllDone() {
				t.Fatalf("k=%d seed=%d: %v", k, seed, res.Status)
			}
			o := tasks.OutcomeFromResult(res, inputs)
			if err := task.Check(o); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
		}
	}
}

// TestAlg2NeverFullAgreementNorFullSplit: with k distinct proposals, the
// number of distinct decisions is always between 1 and k−1 inclusive, and
// both extremes are reachable (1 via a sequential chain is NOT possible —
// the first decides its own and the last decides another's, so at least
// one pair differs iff k ≥ 2 and some process decides its own while
// another decides a successor's... we assert the observed range over all
// orders is within [1, k−1] and that k−1 is attained).
func TestAlg2DecisionSpread(t *testing.T) {
	const k = 4
	minDistinct, maxDistinct := k+1, 0
	forEachPermutation(k, func(order []int) {
		res, inputs := runAlg2(t, k, sim.NewFixed(order...))
		o := tasks.OutcomeFromResult(res, inputs)
		d := o.DistinctOutputs()
		if d < minDistinct {
			minDistinct = d
		}
		if d > maxDistinct {
			maxDistinct = d
		}
	})
	if maxDistinct != k-1 {
		t.Errorf("max distinct decisions = %d, want the tight bound %d", maxDistinct, k-1)
	}
	if minDistinct < 1 {
		t.Errorf("min distinct decisions = %d", minDistinct)
	}
}

// TestAlg2TraceOrderMatchesClaims cross-checks the trace: the first
// EventStep on the WRN object belongs to the first scheduled process.
func TestAlg2TraceOrderMatchesClaims(t *testing.T) {
	order := []int{2, 0, 1}
	res, _ := runAlg2(t, 3, sim.NewFixed(order...))
	steps := res.Trace.ByObject("W")
	if steps.Len() != 3 {
		t.Fatalf("trace has %d events on W, want 3", steps.Len())
	}
	for i, e := range steps.Events {
		if e.Proc != order[i] {
			t.Errorf("step %d by P%d, want P%d", i, e.Proc, order[i])
		}
		if e.Op != "WRN" {
			t.Errorf("step %d op %q", i, e.Op)
		}
	}
}

func forEachPermutation(k int, visit func(order []int)) {
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	var rec func(pos int)
	rec = func(pos int) {
		if pos == k {
			visit(append([]int(nil), perm...))
			return
		}
		for i := pos; i < k; i++ {
			perm[pos], perm[i] = perm[i], perm[pos]
			rec(pos + 1)
			perm[pos], perm[i] = perm[i], perm[pos]
		}
	}
	rec(0)
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

func TestForEachPermutation(t *testing.T) {
	seen := map[string]bool{}
	forEachPermutation(3, func(order []int) {
		seen[fmt.Sprint(order)] = true
	})
	if len(seen) != 6 {
		t.Errorf("enumerated %d permutations of 3, want 6", len(seen))
	}
}

// TestAlg2Claim6Validity: in every execution, each process decides its own
// proposal or its ring successor's — the exact shape of Claim 6.
func TestAlg2Claim6Validity(t *testing.T) {
	const k = 5
	forEachPermutation(k, func(order []int) {
		res, inputs := runAlg2(t, k, sim.NewFixed(order...))
		for i := 0; i < k; i++ {
			out := res.Outputs[i]
			if out != inputs[i] && out != inputs[(i+1)%k] {
				t.Fatalf("order %v: process %d decided %v, not own or successor's (Claim 6)",
					order, i, out)
			}
		}
	})
}

// TestAlg2DoubleProposeHangsOnlyTheReuser: a process that runs
// Algorithm 2 a second time reuses its 1sWRN_k index. The model hangs
// that second propose and nothing else: every other process decides
// within the (k−1) bound. Through chaos.Bounded the reuse returns
// ErrExhausted instead, and the reuser's first decision stands.
func TestAlg2DoubleProposeHangsOnlyTheReuser(t *testing.T) {
	const k = 4
	task := tasks.SetConsensus{K: k - 1}
	for _, c := range []struct {
		name    string
		bounded bool
	}{{"bare", false}, {"bounded", true}} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for reuser := 0; reuser < k; reuser++ {
				for seed := int64(0); seed < 10; seed++ {
					objects := map[string]sim.Object{}
					vs, inputs := proposalsFor(k)
					progs := NewAlg2(objects, "W", vs)
					if c.bounded {
						objects["W"] = chaos.NewBounded(objects["W"], 0)
					}
					once := progs[reuser]
					progs[reuser] = func(ctx *sim.Ctx) sim.Value {
						return []sim.Value{once(ctx), once(ctx)}
					}
					res, err := sim.Run(sim.Config{
						Objects:      objects,
						Programs:     progs,
						Scheduler:    sim.NewRandom(seed),
						VerifyReplay: true,
					})
					if err != nil {
						t.Fatalf("reuser=%d seed=%d: %v", reuser, seed, err)
					}
					for i := 0; i < k; i++ {
						want := sim.StatusDone
						if i == reuser && !c.bounded {
							want = sim.StatusHung
						}
						if res.Status[i] != want {
							t.Fatalf("reuser=%d seed=%d: P%d status %v, want %v", reuser, seed, i, res.Status[i], want)
						}
					}
					o := tasks.OutcomeFromResult(res, inputs)
					if c.bounded {
						outs := o.Outputs[reuser].([]sim.Value)
						if !chaos.Exhausted(outs[1]) {
							t.Fatalf("reuser=%d seed=%d: second propose returned %v, want ErrExhausted",
								reuser, seed, outs[1])
						}
						o.Outputs[reuser] = outs[0]
					}
					if err := task.Check(o); err != nil {
						t.Fatalf("reuser=%d seed=%d: %v", reuser, seed, err)
					}
				}
			}
		})
	}
}
