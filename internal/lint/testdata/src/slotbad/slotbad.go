// Package slotbad seeds the worker shapes slotdiscipline must flag.
package slotbad

import "detobj/internal/par"

type tally struct{ count int }

// Writes lets every worker reach one shared cell: a captured variable,
// a captured map, a constant subscript, a field, a pointer target, and
// a cell reached through a local alias of the captured slice.
func Writes(n int) (int, map[int]int, []int, tally, int) {
	total, out, slots, t, v := 0, make(map[int]int), make([]int, n), tally{}, 0
	p := &v
	par.ForEach(n, 4, func(i int) error {
		total += i
		out[i] = i
		slots[0] = i
		t.count = i
		*p = i
		s := slots
		s[1] = i
		return nil
	})
	return total, out, slots, t, v
}

// Completion hands results over in completion order.
func Completion(n int) int {
	ch := make(chan int, n)
	par.ForEach(n, 4, func(i int) error {
		ch <- i
		<-ch
		go func() {}()
		return nil
	})
	return len(ch)
}
