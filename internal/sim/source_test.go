package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds math/rand normalizes in every way: zero, the
// seed it substitutes for zero, signs, multiples of and neighbours to
// 2^31−1, and the int64 extremes.
var sourceSeeds = []int64{
	0, 1, -1, 89482311,
	1<<31 - 1, -(1<<31 - 1), 2 * (1<<31 - 1), 1 << 31,
	1<<40 + 3, math.MinInt64, math.MaxInt64,
}

// sweepSeeds returns sourceSeeds plus n seeds drawn from a fixed stream.
func sweepSeeds(n int) []int64 {
	seeds := append([]int64(nil), sourceSeeds...)
	r := rand.New(rand.NewSource(0x5eed))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// compareSources draws n values from src and ref, mixing Uint64 and
// Int63 calls, and reports the first draw where they differ.
func compareSources(src *Source, ref rand.Source64, n int) error {
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			if got, want := src.Int63(), ref.Int63(); got != want {
				return fmt.Errorf("draw %d: Int63 = %d, want %d", i, got, want)
			}
			continue
		}
		if got, want := src.Uint64(), ref.Uint64(); got != want {
			return fmt.Errorf("draw %d: Uint64 = %d, want %d", i, got, want)
		}
	}
	return nil
}

// TestSourceMatchesMathRand: every draw of NewSource(seed) is the draw of
// rand.NewSource(seed), through the closed-form prefix, the register's
// build on draw 274 and its 607-word wrap; through rand.Rand's derived
// methods; and after a Seed call mid-stream.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	seeds := sweepSeeds(1000)
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		if err := compareSources(NewSource(seed), ref, draws); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	t.Run("rand.Rand", func(t *testing.T) {
		bounds := []int{1, 2, 3, 7, 1 << 20, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40}
		for _, seed := range seeds[:len(sourceSeeds)+50] {
			got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
			for round := 0; round < 60; round++ {
				for _, n := range bounds {
					if g, w := got.Intn(n), want.Intn(n); g != w {
						t.Fatalf("seed %d round %d: Intn(%d) = %d, want %d", seed, round, n, g, w)
					}
				}
				if g, w := got.Int63n(1e15+7), want.Int63n(1e15+7); g != w {
					t.Fatalf("seed %d round %d: Int63n = %d, want %d", seed, round, g, w)
				}
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d round %d: Float64 = %v, want %v", seed, round, g, w)
				}
				if g, w := fmt.Sprint(got.Perm(9)), fmt.Sprint(want.Perm(9)); g != w {
					t.Fatalf("seed %d round %d: Perm = %s, want %s", seed, round, g, w)
				}
				gs, ws := []int{0, 1, 2, 3, 4, 5}, []int{0, 1, 2, 3, 4, 5}
				got.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
				want.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
				if fmt.Sprint(gs) != fmt.Sprint(ws) {
					t.Fatalf("seed %d round %d: Shuffle = %v, want %v", seed, round, gs, ws)
				}
			}
		}
	})

	t.Run("Seed", func(t *testing.T) {
		// Reseed inside the prefix, at its last draw, after the build and
		// after the wrap; the register, once built, is reused.
		src := NewSource(7)
		for i, at := range []int{0, 5, rngTap, rngTap + 1, 300, 700} {
			src.Seed(int64(i))
			for k := 0; k < at; k++ {
				src.Uint64()
			}
			seed := seeds[i+len(sourceSeeds)]
			src.Seed(seed)
			if err := compareSources(src, rand.NewSource(seed).(rand.Source64), draws); err != nil {
				t.Fatalf("reseeded with %d after %d draws: %v", seed, at, err)
			}
		}
		got, want := rand.New(NewSource(3)), rand.New(rand.NewSource(3))
		for k := 0; k < 400; k++ {
			got.Int63()
		}
		got.Seed(-9)
		want.Seed(-9)
		for k := 0; k < draws; k++ {
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("rand.Rand reseeded with -9: draw %d = %d, want %d", k, g, w)
			}
		}
	})
}

// FuzzSourceMatchesMathRand: for any seed, the first draws of
// NewSource(seed) are those of rand.NewSource(seed).
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds {
		f.Add(seed, uint16(rngTap+1))
	}
	f.Add(int64(42), uint16(2*rngLen+1))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		if err := compareSources(NewSource(seed), rand.NewSource(seed).(rand.Source64), int(draws)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// BenchmarkSeededSource compares seeding a source and drawing from it,
// per seed, between math/rand and Source. Past rngTap draws Source builds
// the register math/rand builds up front.
func BenchmarkSeededSource(b *testing.B) {
	for _, draws := range []int{16, 64, rngTap, 400, 2000} {
		b.Run(fmt.Sprintf("draws=%d/math-rand", draws), func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				src := rand.NewSource(int64(i)).(rand.Source64)
				for k := 0; k < draws; k++ {
					sink += src.Uint64()
				}
			}
			benchSink = sink
		})
		b.Run(fmt.Sprintf("draws=%d/sim.Source", draws), func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				src := NewSource(int64(i))
				for k := 0; k < draws; k++ {
					sink += src.Uint64()
				}
			}
			benchSink = sink
		})
	}
}

var benchSink uint64
