// Package nativebad seeds the nondeterminism nodeterminism must flag in
// native/, where the fixture test grafts it: a wall-clock branch in an
// operation, the clock time.Until reads, a global-rand draw and an
// order-sensitive map range.
package nativebad

import (
	"math/rand"
	"time"
)

// Op lets the wall clock decide its answer.
func Op(v any) (any, error) {
	if time.Now().UnixNano()%2 == 0 {
		return nil, nil
	}
	return v, nil
}

// Left reads the wall clock through a deadline.
func Left(t time.Time) time.Duration { return time.Until(t) }

// Pick draws from the unseeded global random source.
func Pick(n int) int { return rand.Intn(n) }

// First returns whichever key the randomized iteration visits first.
func First(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}
