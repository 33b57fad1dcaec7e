package sim

// source.go provides Source, the seeded random source behind the Random
// scheduler, Env.Rand and the chaos adversaries. It draws exactly what
// rand.NewSource(seed) draws, but seeding costs O(1) instead of 1,841
// dependent Lehmer steps and a 4.9 KB register.
//
// math/rand seeds its 607-word lagged-Fibonacci register from the Lehmer
// sequence x_n = seed·48271^n mod (2^31−1): after 20 discarded steps, word
// i is x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i}, XORed with a constant.
// Each x_n is one modular multiplication of the seed by a power that does
// not depend on the seed, so any word can be computed on its own. Draw n
// adds words 334−n and 607−n and stores the sum in word 334−n; for
// n <= 273 neither word has been written yet, so those draws need no
// register at all. Almost every seeded stream in the module ends well
// before that (the scheduler and the adversaries draw at most a few dozen
// values per run). A stream that goes on builds the register once, on
// its 274th draw, and continues exactly as math/rand does.

import "math/rand"

const (
	rngLen  = 607             // math/rand's register length
	rngTap  = 273             // its tap; also the number of draws that read no written word
	rngFeed = rngLen - rngTap // its feed cursor before the first draw

	lehmerMod  = 1<<31 - 1 // the seeding sequence's modulus, a prime
	lehmerMul  = 48271     // its multiplier
	lehmerSkip = 20        // steps seeding discards before word 0
	zeroSeed   = 89482311  // what math/rand seeds with in place of 0
)

// The two seed-independent tables, built at init and read-only after, so
// concurrent runs share them safely.
var (
	// lehmerPow[i][j] is 48271^(lehmerSkip+1+3i+j) mod (2^31−1), the
	// power that turns the seed into the j-th Lehmer value of word i.
	lehmerPow [rngLen][3]uint32
	// rngCooked holds math/rand's constants, XORed into each word.
	rngCooked [rngLen]int64
)

func init() {
	x := uint64(1)
	for k := 1; k <= lehmerSkip+3*rngLen; k++ {
		x = x * lehmerMul % lehmerMod
		if j := k - lehmerSkip - 1; j >= 0 {
			lehmerPow[j/3][j%3] = uint32(x)
		}
	}
	recoverCooked()
}

// recoverCooked fills rngCooked from the public stream of
// rand.NewSource(1): it undoes the first rngLen draws to get the seeded
// register, and removes seed 1's Lehmer part from every word.
func recoverCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var y [rngLen + 1]int64 // y[n] is draw n
	for n := 1; n <= rngLen; n++ {
		y[n] = int64(ref.Uint64())
	}
	// Draw n > rngTap adds an unwritten feed word to the word that draw
	// n−rngTap wrote; draw n <= rngTap adds two unwritten words.
	var reg [rngLen]int64
	for n := rngTap + 1; n <= rngLen; n++ {
		reg[(rngFeed-n+rngLen)%rngLen] = y[n] - y[n-rngTap]
	}
	for n := 1; n <= rngTap; n++ {
		reg[rngFeed-n] = y[n] - reg[rngLen-n]
	}
	for i := range reg {
		rngCooked[i] = reg[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is word i of the register seeded with x0, before the cooked
// constant is XORed in.
func lehmerWord(x0 uint64, i int) int64 {
	p := &lehmerPow[i]
	return lehmerStep(x0, p[0])<<40 ^ lehmerStep(x0, p[1])<<20 ^ lehmerStep(x0, p[2])
}

// lehmerStep returns x0·p mod (2^31−1) for x0, p in [1, 2^31−2], folding
// the product at bit 31 instead of dividing.
func lehmerStep(x0 uint64, p uint32) int64 {
	v := x0 * uint64(p)
	v = v&lehmerMod + v>>31
	if v >= lehmerMod {
		v -= lehmerMod
	}
	return int64(v)
}

// Source is a rand.Source64 whose every draw equals the draw of
// rand.NewSource(seed), for every seed, but whose seeding is O(1). Its
// zero value is not seeded; call Seed or use NewSource. Like math/rand's
// sources it is not safe for concurrent use.
type Source struct {
	x0        uint64 // the normalized seed: x_0 of the Lehmer sequence
	n         int    // draws so far; rngTap+1 once the register is live
	tap, feed int    // register cursors, as math/rand's
	// vec is the register, allocated and filled on draw rngTap+1 and
	// kept across Seed calls.
	vec *[rngLen]int64
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed's first draw, normalizing seed as
// math/rand does. The register's storage is kept for reuse.
func (s *Source) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0, s.n = uint64(seed), 0
}

// word is word i of the freshly seeded register.
func (s *Source) word(i int) int64 { return lehmerWord(s.x0, i) ^ rngCooked[i] }

// Uint64 returns the next draw as a uint64.
func (s *Source) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return uint64(s.word(rngFeed-s.n) + s.word(rngLen-s.n))
	}
	if s.n == rngTap {
		s.build()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next draw as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// build seeds the register, replays the rngTap draws already made and
// leaves the cursors where math/rand's would be.
func (s *Source) build() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	v := s.vec
	for i := range v {
		v[i] = s.word(i)
	}
	for n := 1; n <= rngTap; n++ {
		v[rngFeed-n] += v[rngLen-n]
	}
	s.tap, s.feed = rngFeed, rngFeed-rngTap
	s.n = rngTap + 1
}
