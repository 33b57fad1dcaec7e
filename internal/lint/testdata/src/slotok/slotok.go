// Package slotok exercises every write shape the slotdiscipline rule
// must accept: direct index slots, subscripts derived from the index
// through locals and arithmetic, pointer-to-own-slot handles, an
// atomic-claim stream handout, a mutex-guarded sink, and plain
// literal-local state.
package slotok

import (
	"sync"
	"sync/atomic"

	"detobj/internal/par"
)

type cell struct {
	val int
	err error
}

// FillDirect writes each worker's result into its own slot.
func FillDirect(n, workers int) []int {
	slots := make([]int, n)
	par.ForEach(n, workers, func(i int) error {
		slots[i] = i * i
		return nil
	})
	return slots
}

// FillDerived writes through subscripts computed from the index: a
// local base, arithmetic on it, and a pointer to the worker's own cell.
func FillDerived(n, workers int) []cell {
	pairs := make([]int, 2*n)
	cells := make([]cell, n)
	par.ForEach(n, workers, func(i int) error {
		base := 2 * i
		pairs[base] = i
		pairs[base+1] = i + 1
		c := &cells[i]
		c.val = pairs[base]
		c.err = nil
		return nil
	})
	return cells
}

// FillClaimed hands out extra stream slots with an atomic claim counter,
// the work-claiming idiom of a worker pool: the claimed index is as good
// as the worker index.
func FillClaimed(n, workers int) []int {
	streams := make([]int, 2*n)
	var next atomic.Int64
	par.ForEach(n, workers, func(i int) error {
		r := int(next.Add(1) - 1)
		streams[r] = i
		return nil
	})
	return streams
}

// SumGuarded accumulates into a shared total under one mutex — the
// documented commutative-sink shape — and counts entries atomically.
func SumGuarded(n, workers int) (int, int64) {
	var (
		mu    sync.Mutex
		total int
		seen  atomic.Int64
	)
	par.ForEach(n, workers, func(i int) error {
		local := i * 3 // literal-local state is free
		local++
		seen.Add(1)
		mu.Lock()
		total += local
		mu.Unlock()
		return nil
	})
	return total, seen.Load()
}
