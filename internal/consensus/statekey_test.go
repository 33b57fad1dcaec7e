package consensus

import (
	"fmt"
	"strings"
	"testing"

	"detobj/internal/modelcheck"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// keyValues are object contents beyond what the E6 alphabets write: ⊥,
// nil, negative and multi-digit ints, bools, and strings containing
// spaces and brackets.
var keyValues = []sim.Value{wrn.Bottom, nil, -1, -42, 0, 1234567, true, false, "", "a b", "[x y]", "]["}

// The fmt forms the keys were first written in; the fmt-free keys must
// reproduce them byte for byte.
func oldSwapKey(s *Swap) string         { return fmt.Sprint(s.v) }
func oldTASKey(t *TestAndSet) string    { return fmt.Sprint(t.set) }
func oldFetchAddKey(f *FetchAdd) string { return fmt.Sprint(f.n) }
func oldCellKey(c *Cell) string {
	return fmt.Sprintf("%d/%d:%v:%v", c.used, c.n, c.decided, c.decision)
}
func oldQueueKey(q *Queue) string {
	var b strings.Builder
	for _, v := range q.items {
		fmt.Fprintf(&b, "%v|", v)
	}
	return b.String()
}

// checkKey compares one object's key with its fmt form.
func checkKey(t *testing.T, o modelcheck.Finite) {
	t.Helper()
	var want string
	switch x := o.(type) {
	case *Swap:
		want = oldSwapKey(x)
	case *TestAndSet:
		want = oldTASKey(x)
	case *FetchAdd:
		want = oldFetchAddKey(x)
	case *Cell:
		want = oldCellKey(x)
	case *Queue:
		want = oldQueueKey(x)
	default:
		t.Fatalf("no fmt form for %T", o)
	}
	if got := o.StateKey(); got != want {
		t.Errorf("%T key %q, fmt %q", o, got, want)
	}
}

// TestStateKeyMatchesFmt: every key equals its fmt form on every
// reachable state of the E6 alphabets and on hand-built states.
func TestStateKeyMatchesFmt(t *testing.T) {
	ops := func(op string, args ...sim.Value) []sim.Invocation {
		var alpha []sim.Invocation
		for _, a := range args {
			alpha = append(alpha, sim.Invocation{Op: op, Args: []sim.Value{a}})
		}
		return alpha
	}
	for _, c := range []struct {
		init  modelcheck.Finite
		alpha []sim.Invocation
	}{
		{NewSwap(nil), ops("swap", "p", "q")},
		{NewSwap(nil), ops("swap", "p.7", "q.7")},
		{NewTestAndSet(), []sim.Invocation{{Op: "tas"}}},
		{NewCell(4), ops("propose", "p", "q")},
		{NewCell(4), ops("propose", "p.7", "q.7")},
		{NewCell(1), ops("propose", -3, 12)},
		{NewQueue("tok", "a b", -7, nil), []sim.Invocation{{Op: "deq"}}},
		{NewFetchAdd(3), ops("fad", 0)},
	} {
		states, err := modelcheck.Reachable(c.init, c.alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			checkKey(t, s)
		}
	}
	for i, v := range keyValues {
		checkKey(t, &Swap{v: v})
		checkKey(t, &Cell{used: i, n: 4, decided: i%2 == 0, decision: v})
		checkKey(t, &Queue{items: keyValues[:i]})
	}
	for _, n := range []int{-1234567, -1, 0, 7, 1234567} {
		checkKey(t, &FetchAdd{n: n})
		checkKey(t, &Cell{used: n, n: -n, decision: n})
	}
	checkKey(t, &TestAndSet{set: true})
	checkKey(t, &Queue{items: []sim.Value{strings.Repeat("long ", 20), 1}})
}
