// Package slotok holds the worker shapes slotdiscipline must accept.
package slotok

import (
	"sync/atomic"

	"detobj/internal/par"
)

type cell struct {
	val int
	err error
}

// Fill writes slot i directly and through a &cells[i] handle, keeps
// temporaries in literal locals, and counts with an atomic method call.
func Fill(n int) ([]int, []cell, int64) {
	slots, cells := make([]int, n), make([]cell, n)
	var seen atomic.Int64
	par.ForEach(n, 4, func(i int) error {
		local := map[int]int{}
		local[i] = i * i
		slots[i] = local[i]
		c := &cells[i]
		c.val = i
		c.err = nil
		seen.Add(1)
		return nil
	})
	return slots, cells, seen.Load()
}
