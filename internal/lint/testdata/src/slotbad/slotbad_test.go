package slotbad

import (
	"testing"

	"detobj/internal/par"
)

// TestWorkerBreaksSlotDiscipline: test files get the same check.
func TestWorkerBreaksSlotDiscipline(t *testing.T) {
	total, slots, seen := 0, make([]int, 8), map[int]bool{}
	par.ForEach(8, 4, func(i int) error {
		total += i
		slots[0] = i
		seen[i] = true
		return nil
	})
	if total == 0 && slots[0] == 0 {
		t.Skip("fixture only")
	}
}
