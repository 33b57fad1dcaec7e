package sim

import (
	"errors"
	"fmt"
	"testing"
)

type renderStringer struct{ s string }

func (r renderStringer) String() string { return r.s }

// renderBoth is a Stringer and an error: fmt prefers Error.
type renderBoth struct{}

func (renderBoth) String() string { return "string" }
func (renderBoth) Error() string  { return "error" }

// renderFormatter is a Formatter and a Stringer: fmt prefers Format.
type renderFormatter struct{}

func (renderFormatter) Format(f fmt.State, verb rune) { fmt.Fprintf(f, "F(%c)", verb) }
func (renderFormatter) String() string                { return "string" }

// renderNilPtr's String dereferences its receiver, so it panics on a
// nil pointer; fmt prints <nil> for that.
type renderNilPtr struct{ s string }

func (r *renderNilPtr) String() string { return r.s }

// renderPanics panics from String on a non-nil value; fmt renders the
// panic inline.
type renderPanics struct{}

func (renderPanics) String() string { panic("boom") }

type renderNamed string

// TestSprintMatchesFmt: the shared renderer is byte-identical to
// fmt.Sprint on its fast arms and on everything it hands to fmt.
func TestSprintMatchesFmt(t *testing.T) {
	var nilPtr *renderNilPtr
	values := []Value{
		nil, true, false,
		0, 7, -1, -42, 1234567890, -9223372036854775808,
		"", "a", "a b", "[x y]", "<hang>", "⊥", "tab\there",
		int64(-3), uint8(200), 2.5, renderNamed("named"),
		[]Value{1, "a b", nil, true}, [2]int{-1, 10},
		struct{ A, B int }{1, -2},
		renderStringer{"x"}, renderBoth{}, renderFormatter{},
		errors.New("an error"),
		nilPtr, &renderNilPtr{"set"}, renderPanics{},
	}
	for _, v := range values {
		want := fmt.Sprint(v)
		if got := Sprint(v); got != want {
			t.Errorf("Sprint(%#v) = %q, fmt.Sprint = %q", v, got, want)
		}
		if got := string(AppendSprint([]byte("pre|"), v)); got != "pre|"+want {
			t.Errorf("AppendSprint(%#v) = %q, want %q", v, got, "pre|"+want)
		}
	}
}

// TestSprintAllocs: with room in dst, neither a fast arm nor the fmt
// arm of AppendSprint allocates, and Sprint allocates no more than
// fmt.Sprint does.
func TestSprintAllocs(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, v := range []Value{nil, true, -42, "a b", renderStringer{"x"}} {
		if n := testing.AllocsPerRun(100, func() { buf = AppendSprint(buf[:0], v) }); n != 0 {
			t.Errorf("AppendSprint(%#v): %v allocs, want 0", v, n)
		}
		var s string
		got := testing.AllocsPerRun(100, func() { s = Sprint(v) })
		want := testing.AllocsPerRun(100, func() { s = fmt.Sprint(v) })
		if got > want {
			t.Errorf("Sprint(%#v): %v allocs, fmt.Sprint %v", v, got, want)
		}
		_ = s
	}
}
