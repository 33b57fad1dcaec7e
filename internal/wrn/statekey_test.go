package wrn

import (
	"fmt"
	"testing"

	"detobj/internal/sim"
)

// keyValues are cell contents beyond what the E6 alphabets write: ⊥,
// nil, negative and multi-digit ints, bools, and strings containing
// spaces and brackets.
var keyValues = []sim.Value{Bottom, nil, -1, -42, 0, 1234567, true, false, "", "a b", "[x y]", "]["}

// oldKey is the fmt form each key was first written in; the fmt-free
// keys must reproduce it byte for byte.
func oldKey(o sim.Object) string {
	switch o := o.(type) {
	case *Object:
		return fmt.Sprint(o.cells)
	case *OneShot:
		return fmt.Sprintf("%v%v", o.inner.cells, o.used)
	}
	panic(fmt.Sprintf("no fmt form for %T", o))
}

// copyState deep-copies a WRN state field by field, so the enumeration
// below leans on nothing but Apply.
func copyState(o sim.Object) sim.Object {
	switch o := o.(type) {
	case *Object:
		return &Object{k: o.k, cells: append([]sim.Value(nil), o.cells...)}
	case *OneShot:
		return &OneShot{inner: copyState(o.inner).(*Object),
			used: append([]bool(nil), o.used...), uses: append([]int(nil), o.uses...)}
	}
	panic(fmt.Sprintf("no copy for %T", o))
}

// reachableStates returns every state init reaches under alpha, found
// breadth-first on copies and deduplicated by the fmt form of the key.
func reachableStates(init sim.Object, alpha []sim.Invocation) []sim.Object {
	seen := map[string]bool{oldKey(init): true}
	states := []sim.Object{init}
	for i := 0; i < len(states); i++ {
		for _, inv := range alpha {
			next := copyState(states[i])
			if next.Apply(&sim.Env{}, inv).Effect == sim.Hang {
				continue
			}
			if k := oldKey(next); !seen[k] {
				seen[k] = true
				states = append(states, next)
			}
		}
	}
	return states
}

// e6Alphabets are the WRN_k alphabets of E6: cmd/detobj's writes of
// v0 and v1 (and v2, for a larger domain), and the benchmark's writes
// of p.S and q.S.
func e6Alphabets(k int) [][]sim.Invocation {
	writes := func(values ...string) []sim.Invocation {
		var ops []sim.Invocation
		for i := 0; i < k; i++ {
			for _, v := range values {
				ops = append(ops, sim.Invocation{Op: "WRN", Args: []sim.Value{i, v}})
			}
		}
		return ops
	}
	return [][]sim.Invocation{writes("v0", "v1"), writes("v0", "v1", "v2"), writes("p.7", "q.7")}
}

// TestStateKeyMatchesFmt: both WRN keys equal their fmt forms on every
// reachable state of the E6 alphabets and on hand-built cells.
func TestStateKeyMatchesFmt(t *testing.T) {
	var states []sim.Object
	for k := 2; k <= 5; k++ {
		for _, alpha := range e6Alphabets(k) {
			states = append(states, reachableStates(New(k), alpha)...)
			states = append(states, reachableStates(NewOneShot(k), alpha)...)
		}
	}
	n := len(keyValues)
	for i := range keyValues {
		cells := []sim.Value{keyValues[i], keyValues[(i+1)%n], keyValues[(i+5)%n]}
		o := &Object{k: len(cells), cells: cells}
		states = append(states, o,
			&OneShot{inner: o, used: []bool{i%2 == 0, true, false}, uses: make([]int, len(cells))})
	}
	long := New(40) // past the 64-byte stack buffer
	long.cells[0], long.cells[39] = "a long value", -1234567890
	states = append(states, long)
	for _, s := range states {
		if got, want := s.(interface{ StateKey() string }).StateKey(), oldKey(s); got != want {
			t.Errorf("%T key %q, fmt %q", s, got, want)
		}
	}
}
