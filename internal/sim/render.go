package sim

// render.go renders Values as text, byte-identical to fmt.Sprint, for
// the model checker's state keys and output tokens. Those run once per
// transition of an enumerated state space, and fmt's reflection walk
// dominated that loop, so the common Value types render without it.
// Every other type still goes through fmt, which applies a Formatter,
// then an error's Error, then a Stringer's String, with its own panic
// handling — so the text cannot drift from fmt's.

import (
	"fmt"
	"strconv"
)

// AppendSprint appends v rendered exactly as fmt.Sprint(v) renders it.
// nil, bool, int and string take fast arms; anything else goes through
// fmt, which allocates nothing once dst has room for the text.
func AppendSprint(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "<nil>"...)
	case bool:
		return strconv.AppendBool(dst, x)
	case int:
		return strconv.AppendInt(dst, int64(x), 10)
	case string:
		return append(dst, x...)
	default:
		return fmt.Append(dst, v)
	}
}

// Sprint returns v rendered exactly as fmt.Sprint(v) renders it. A
// string renders as itself, without a copy, and any other text up to 64
// bytes costs only the one allocation fmt.Sprint makes for its result.
func Sprint(v Value) string {
	switch x := v.(type) {
	case nil:
		return "<nil>"
	case bool:
		return strconv.FormatBool(x)
	case int:
		return strconv.Itoa(x)
	case string:
		return x
	default:
		var buf [64]byte
		return string(AppendSprint(buf[:0], v))
	}
}
