// Package hotallocok exercises the allocation shapes hotalloc must
// NOT flag: allocation hoisted above the loop, per-iteration composite
// values the escape analysis proves frame-local (the compiler stack-
// allocates them), flat literals copied into a struct parameter
// (through a conversion), an appended element, a struct result or a
// value receiver, and free allocation in functions no hot root reaches.
package hotallocok

// point is a flat per-iteration value.
type point struct{ x, y int }

// pair converts to point: the two share an underlying type.
type pair struct{ x, y int }

// Explore is hot, but every per-iteration value stays in the frame:
// the buffer is made once at depth 0 and filled by index.
func Explore(n int) int {
	buf := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		p := point{x: i, y: i}
		q := mirror(p)
		buf[i] = p.x + q.y + point{x: i, y: -i}.norm()
		total += buf[i]
	}
	return total
}

// mirror returns its flat literal by value: the caller's result slot
// gets a copy.
func mirror(p point) point { return point{x: p.y, y: p.x} }

// norm has a value receiver: a literal it is called on is copied in.
func (p point) norm() int { return p.x*p.x + p.y*p.y }

// dist takes its point by value: the caller's literal is copied in.
func dist(p point) int { return p.x*p.x + p.y*p.y }

// Trail is hot by annotation. Its loop passes a flat literal, converted
// to the parameter's type, to a struct parameter and appends another as
// an element; both are copies that stay in the frame. The append is a
// site of its own, and its allow sits two lines above the appended
// literal, so it cannot cover a finding on the literal.
//
//detlint:hot
func Trail(n int) []point {
	buf := make([]point, 0, n)
	for i := 0; i < n; i++ {
		d := dist(point(pair{x: i, y: -i}))
		//detlint:allow hotalloc the capacity reserved above keeps this append from growing
		buf = append(buf,
			point{x: d, y: i})
	}
	return buf
}

// Cold allocates per iteration, legitimately: no hot root reaches it.
func Cold(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}
