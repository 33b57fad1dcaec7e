package modelcheck

// render.go renders value slices without fmt. The engines render
// values once per object step — one at a time through sim.Sprint, the
// decision vectors of an exploration through renderValues — and fmt's
// reflection walk plus its interface boxing of every argument dominated
// their allocation profiles (detlint's hotalloc/boxing rules budget
// this path; see DESIGN.md §7). The text is byte-identical to
// fmt.Sprint's, so reports cannot drift.

import (
	"strings"

	"detobj/internal/sim"
)

// renderValues renders a value slice exactly as fmt.Sprint renders the
// slice itself: elements space-separated inside brackets. DecisionVectors
// keys its vectors through here, so decision keys render identically to
// decisionValues without fmt's reflection walk over the slice.
func renderValues(vs []sim.Value) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sim.Sprint(v))
	}
	b.WriteByte(']')
	return b.String()
}
