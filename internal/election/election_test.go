package election

import (
	"fmt"
	"testing"

	"detobj/internal/sim"
	"detobj/internal/tasks"
)

func TestNewStrongObjectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStrongObject(1) did not panic")
		}
	}()
	NewStrongObject(1)
}

func TestStrongObjectBadOps(t *testing.T) {
	for _, inv := range []sim.Invocation{
		{Op: "propose", Args: []sim.Value{0}},
		{Op: "invoke", Args: []sim.Value{7}},
		{Op: "invoke", Args: []sim.Value{"x"}},
	} {
		inv := inv
		t.Run(inv.String(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%v did not panic", inv)
				}
			}()
			NewStrongObject(3).Apply(&sim.Env{}, inv)
		})
	}
}

// TestStrongObjectTask (paper §2): over many seeds and schedules, the
// object's outputs satisfy the (k, k−1)-strong set election task.
func TestStrongObjectTask(t *testing.T) {
	for k := 2; k <= 6; k++ {
		task := tasks.StrongElection{K: k - 1}
		for seed := int64(0); seed < 100; seed++ {
			obj := NewStrongObject(k)
			objects := map[string]sim.Object{"SSE": obj}
			ref := StrongRef{Name: "SSE"}
			inputs := map[int]sim.Value{}
			progs := make([]sim.Program, k)
			for i := 0; i < k; i++ {
				i := i
				inputs[i] = i
				progs[i] = func(ctx *sim.Ctx) sim.Value { return ref.Invoke(ctx, i) }
			}
			res, err := sim.Run(sim.Config{
				Objects:   objects,
				Programs:  progs,
				Scheduler: sim.NewRandom(seed),
				Seed:      seed * 17,
			})
			if err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if !res.AllDone() {
				t.Fatalf("k=%d seed=%d: %v", k, seed, res.Status)
			}
			o := tasks.OutcomeFromResult(res, inputs)
			if err := task.Check(o); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if w := len(obj.Winners()); w < 1 || w > k-1 {
				t.Fatalf("k=%d seed=%d: %d winners", k, seed, w)
			}
		}
	}
}

// TestStrongObjectFewerParticipants: when only some of the k indices
// invoke the object, every participant still decides, and the outcome
// over the participants satisfies (k, k−1)-strong set election: each
// elected index is a participant that elected itself.
func TestStrongObjectFewerParticipants(t *testing.T) {
	for k := 3; k <= 5; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			task := tasks.StrongElection{K: k - 1}
			ref := StrongRef{Name: "SSE"}
			for mask := 1; mask < 1<<k-1; mask++ { // every non-empty proper subset
				for seed := int64(0); seed < 10; seed++ {
					o := tasks.Outcome{Inputs: map[int]sim.Value{}, Outputs: map[int]sim.Value{}}
					progs := make([]sim.Program, k)
					for i := range progs {
						i := i
						if mask&(1<<i) == 0 {
							progs[i] = func(*sim.Ctx) sim.Value { return nil }
							continue
						}
						o.Inputs[i] = i
						progs[i] = func(ctx *sim.Ctx) sim.Value { return ref.Invoke(ctx, i) }
					}
					res, err := sim.Run(sim.Config{
						Objects:   map[string]sim.Object{"SSE": NewStrongObject(k)},
						Programs:  progs,
						Scheduler: sim.NewRandom(seed),
						Seed:      seed,
					})
					if err != nil {
						t.Fatalf("mask=%b seed=%d: %v", mask, seed, err)
					}
					for i := range o.Inputs {
						if res.Status[i] != sim.StatusDone {
							t.Fatalf("mask=%b seed=%d: participant %d status %v", mask, seed, i, res.Status[i])
						}
						o.Outputs[i] = res.Outputs[i]
					}
					if err := task.Check(o); err != nil {
						t.Fatalf("mask=%b seed=%d: %v", mask, seed, err)
					}
				}
			}
		})
	}
}

// TestStrongObjectFirstInvokerWins: the first invocation always elects
// itself.
func TestStrongObjectFirstInvokerWins(t *testing.T) {
	o := NewStrongObject(4)
	env := &sim.Env{Rand: fixedRand{}}
	out := o.Apply(env, sim.Invocation{Op: "invoke", Args: []sim.Value{2}})
	if out.Value != 2 {
		t.Errorf("first invoker elected %v, want itself (2)", out.Value)
	}
}

// fixedRand always returns 0, forcing "adopt an existing winner".
type fixedRand struct{}

func (fixedRand) Intn(int) int { return 0 }

// TestStrongObjectForcedAdoption: with an adversarial choice source that
// never grows the winner set, every later invoker adopts the first winner
// — the minimal-agreement behaviour.
func TestStrongObjectForcedAdoption(t *testing.T) {
	o := NewStrongObject(4)
	env := &sim.Env{Rand: fixedRand{}}
	first := o.Apply(env, sim.Invocation{Op: "invoke", Args: []sim.Value{3}}).Value
	for i := 0; i < 3; i++ {
		got := o.Apply(env, sim.Invocation{Op: "invoke", Args: []sim.Value{i}}).Value
		if got != first {
			t.Errorf("invoker %d elected %v, want %v", i, got, first)
		}
	}
	if len(o.Winners()) != 1 {
		t.Errorf("winner set = %v, want singleton", o.Winners())
	}
}

// growRand always returns 1, making every invoker try to join the winners.
type growRand struct{}

func (growRand) Intn(n int) int { return 1 % n }

// TestStrongObjectWinnerCap: even when every invoker tries to win, the
// winner set never exceeds k−1, so at least one invocation adopts — the
// (k−1)-agreement bound.
func TestStrongObjectWinnerCap(t *testing.T) {
	const k = 4
	o := NewStrongObject(k)
	env := &sim.Env{Rand: growRand{}}
	distinct := map[sim.Value]bool{}
	for i := 0; i < k; i++ {
		distinct[o.Apply(env, sim.Invocation{Op: "invoke", Args: []sim.Value{i}}).Value] = true
	}
	if len(o.Winners()) > k-1 {
		t.Errorf("winner set %v exceeds k-1", o.Winners())
	}
	if len(distinct) > k-1 {
		t.Errorf("%d distinct outputs, want at most %d", len(distinct), k-1)
	}
}

// TestStrongObjectReuseHangs: invoking the same index twice parks the
// caller.
func TestStrongObjectReuseHangs(t *testing.T) {
	o := NewStrongObject(3)
	env := &sim.Env{Rand: fixedRand{}}
	o.Apply(env, sim.Invocation{Op: "invoke", Args: []sim.Value{0}})
	if out := o.Apply(env, sim.Invocation{Op: "invoke", Args: []sim.Value{0}}); out.Effect != sim.Hang {
		t.Errorf("reuse did not hang: %+v", out)
	}
	if o.K() != 3 {
		t.Errorf("K = %d", o.K())
	}
}
