package recoverable

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"detobj/internal/modelcheck"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// The fmt forms the keys were first written in; the fmt-free keys must
// reproduce them byte for byte.
func oldRegisterKey(r *Register) string {
	var b strings.Builder
	fmt.Fprintf(&b, "d=%v", r.durable)
	procs := make([]int, 0, len(r.buf))
	for p := range r.buf {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		fmt.Fprintf(&b, " b%d=%v", p, r.buf[p])
	}
	return b.String()
}

func oldTASKey(t *TestAndSet) string { return fmt.Sprintf("w=%d", t.winner) }

// TestStateKeyMatchesFmt: both keys equal their fmt forms on every
// reachable state of a write/persist/read alphabet and on hand-built
// states: ⊥, nil, negative and multi-digit ints, bools, strings
// containing spaces and brackets, and several staged writers.
func TestStateKeyMatchesFmt(t *testing.T) {
	alpha := []sim.Invocation{{Op: "write", Args: []sim.Value{"p"}},
		{Op: "write", Args: []sim.Value{"a b"}}, {Op: "persist"}, {Op: "read"}}
	states, err := modelcheck.Reachable(NewRegister("init"), alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range states {
		r := s.(*Register)
		if got, want := r.StateKey(), oldRegisterKey(r); got != want {
			t.Errorf("register key %q, fmt %q", got, want)
		}
	}
	values := []sim.Value{wrn.Bottom, nil, -1, -42, 0, 1234567, true, false, "", "a b", "[x y]", "]["}
	for i, v := range values {
		r := &Register{durable: v, buf: map[int]sim.Value{}}
		for p := 0; p < i; p++ {
			r.buf[p*7] = values[(i+p)%len(values)]
		}
		if got, want := r.StateKey(), oldRegisterKey(r); got != want {
			t.Errorf("register key %q, fmt %q", got, want)
		}
	}
	for _, w := range []int{-1234567, -1, 0, 1, 12, 1234567} {
		tas := &TestAndSet{winner: w}
		if got, want := tas.StateKey(), oldTASKey(tas); got != want {
			t.Errorf("test-and-set key %q, fmt %q", got, want)
		}
	}
}
