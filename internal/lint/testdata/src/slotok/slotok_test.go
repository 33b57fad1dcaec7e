package slotok

import (
	"testing"

	"detobj/internal/par"
)

// TestWorkersKeepSlotDiscipline writes only slot i and literal locals.
func TestWorkersKeepSlotDiscipline(t *testing.T) {
	slots := make([]int, 8)
	par.ForEach(8, 4, func(i int) error {
		local := i
		local++
		slots[i] = local
		return nil
	})
	if slots[7] != 8 {
		t.Fatalf("slot 7 = %d, want 8", slots[7])
	}
}
