package sim_test

import (
	"bytes"
	"testing"

	"detobj/internal/sim"
)

// lookalike prints as ⊥ but is not ⊥.
type lookalike struct{}

func (lookalike) String() string { return "⊥" }

// TestAppendValueSig pins each arm's encoding: ⊥ keeps the bytes it had
// when a fmt.Stringer arm signed it, and any other value signs its type
// with its rendering, so a lookalike of ⊥ signs apart from it.
func TestAppendValueSig(t *testing.T) {
	for _, c := range []struct {
		v    sim.Value
		want string
	}{
		{nil, "\x01"},
		{false, "\x02"},
		{true, "\x03"},
		{-2, "\x04\x03"},
		{"ab", "\x05\x02ab"},
		{sim.Bottom, "\x06\x03⊥"},
		{int8(1), "\x07\x06int8=1"},
		{lookalike{}, "\x07\x16sim_test.lookalike=⊥"},
	} {
		if got := sim.AppendValueSig(nil, c.v); !bytes.Equal(got, []byte(c.want)) {
			t.Errorf("AppendValueSig(%#v) = %q, want %q", c.v, got, c.want)
		}
	}
}
