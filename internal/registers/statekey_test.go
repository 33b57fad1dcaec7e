package registers

import (
	"fmt"
	"testing"

	"detobj/internal/modelcheck"
	"detobj/internal/sim"
)

// keyStringer stands in for a Stringer value such as wrn's ⊥.
type keyStringer struct{}

func (keyStringer) String() string { return "⊥" }

// TestStateKeyMatchesFmt: both keys equal the fmt form they were first
// written in, on every reachable state of E6's register alphabet and on
// nil, negative and multi-digit ints, bools, and strings containing
// spaces and brackets.
func TestStateKeyMatchesFmt(t *testing.T) {
	check := func(r *Register) {
		t.Helper()
		if got, want := r.StateKey(), fmt.Sprint(r.value); got != want {
			t.Errorf("register key %q, fmt %q", got, want)
		}
	}
	for _, vs := range [][2]string{{"p", "q"}, {"p.7", "q.7"}} {
		alpha := []sim.Invocation{{Op: "read"},
			{Op: "write", Args: []sim.Value{vs[0]}}, {Op: "write", Args: []sim.Value{vs[1]}}}
		states, err := modelcheck.Reachable(New("init"), alpha, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			check(s.(*Register))
		}
	}
	for _, v := range []sim.Value{keyStringer{}, nil, -1, -42, 0, 1234567, true, false, "", "a b", "[x y]", "]["} {
		check(New(v))
	}
	for _, n := range []int{-1234567, -1, 0, 7, 1234567} {
		c := &Counter{n: n}
		if got, want := c.StateKey(), fmt.Sprint(c.n); got != want {
			t.Errorf("counter key %q, fmt %q", got, want)
		}
	}
}
