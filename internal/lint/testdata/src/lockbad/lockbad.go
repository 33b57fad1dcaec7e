// Package lockbad seeds everything the lockorder rule must flag: an
// AB/BA acquisition-order cycle with one leg hidden behind a helper
// call, and a non-reentrant re-acquisition.
package lockbad

import "sync"

// Pair holds two locks with no fixed acquisition order.
type Pair struct {
	a sync.Mutex
	b sync.Mutex
	n int
}

// NewPair builds the pair.
func NewPair() *Pair { return &Pair{} }

// Forward locks a, then b.
func (p *Pair) Forward() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock()
	p.n++
	p.b.Unlock()
}

// Backward locks b, then takes a through a helper: the interprocedural
// leg of the cycle.
func (p *Pair) Backward() {
	p.b.Lock()
	defer p.b.Unlock()
	p.grabA()
}

// grabA closes the cycle when called with b held.
func (p *Pair) grabA() {
	p.a.Lock()
	p.n++
	p.a.Unlock()
}

// Cell re-acquires its own lock.
type Cell struct {
	mu sync.Mutex
	v  int
}

// NewCell builds the cell.
func NewCell() *Cell { return &Cell{} }

// Again deadlocks against itself: the second Lock never returns.
func (c *Cell) Again() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mu.Lock()
	x := c.v
	c.mu.Unlock()
	return x
}
