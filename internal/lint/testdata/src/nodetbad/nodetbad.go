// Package nodetbad seeds one violation per nodeterminism trigger. The
// fixture test grafts it into the module under internal/ and asserts
// every construct below is flagged.
package nodetbad

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock.
func Stamp() time.Time { return time.Now() }

// Age measures elapsed wall time.
func Age(t time.Time) time.Duration { return time.Since(t) }

// Left reads the wall clock through a deadline.
func Left(t time.Time) time.Duration { return time.Until(t) }

// Pick draws from the unseeded global random source.
func Pick(n int) int { return rand.Intn(n) }

// Race selects over two channels; the runtime picks pseudo-randomly.
func Race(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// Spawn launches an unschedulable goroutine.
func Spawn(f func()) { go f() }

// First returns whichever key the randomized iteration visits first.
func First(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// Collect gathers keys in iteration order and never sorts them.
func Collect(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// Naked carries an allow comment with no justification: the wall-clock
// read stays flagged and the comment itself becomes an "allow" finding.
func Naked() time.Time {
	//detlint:allow nodeterminism
	return time.Now()
}
