package modelcheck

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/registers"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
)

// ringFactory is the E1 workload at parameter k: k processes solving
// (k−1)-set consensus from one 1sWRN_k via Algorithm 2. Process i writes
// cell i and reads cell (i+1) mod k, so the configuration is
// rotation-symmetric (and only rotation-symmetric).
func ringFactory(k int) Factory {
	return func() sim.Config {
		vs := make([]sim.Value, k)
		for i := range vs {
			vs[i] = i * 10
		}
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: setconsensus.NewAlg2(objects, "W", vs)}
	}
}

// identRename is a Symmetry.Rename for protocols whose decision values
// do not mention process identities (counter readings, shared reads).
func identRename(v sim.Value, _ []int) sim.Value { return v }

func TestSymmetryGroupHelpers(t *testing.T) {
	if g := len(SymmetricClasses(4, []int{1, 2, 3}).Perms); g != 6 {
		t.Errorf("S({1,2,3}) in 4 procs: order %d, want 6", g)
	}
	if g := len(SymmetricClasses(5, []int{0, 2}, []int{1, 3}).Perms); g != 4 {
		t.Errorf("S({0,2})xS({1,3}) in 5 procs: order %d, want 4", g)
	}
	if g := len(CyclicRotations(5).Perms); g != 5 {
		t.Errorf("C_5: order %d, want 5", g)
	}
}

// TestSymmetryGroupValidation: each malformed group is rejected with its
// own error, and valid groups are accepted, over 256 processes too.
func TestSymmetryGroupValidation(t *testing.T) {
	swap := func(n, a, b int) []int {
		p := identityPerm(n)
		p[a], p[b] = b, a
		return p
	}
	cycle := identityPerm(300)
	cycle[1], cycle[257], cycle[2] = 257, 2, 1
	cases := []struct {
		name    string
		n       int
		perms   [][]int
		wantErr string // "" for a valid group
	}{
		{"no identity", 3, [][]int{{1, 0, 2}}, "modelcheck: symmetry group must contain the identity permutation"},
		{"not closed", 3, [][]int{{0, 1, 2}, {1, 2, 0}}, "modelcheck: symmetry Perms are not closed under composition"}, // missing the second rotation
		{"wrong length", 3, [][]int{{0, 1}}, "modelcheck: Perms[0] has length 2, want 3"},
		{"not a permutation", 3, [][]int{{0, 1, 2}, {0, 0, 2}}, "modelcheck: Perms[1] is not a permutation of 3 processes"},
		{"duplicate", 3, [][]int{{0, 1, 2}, {0, 1, 2}}, "modelcheck: Perms[1] duplicates an earlier permutation"},
		{"not closed in 300", 300, [][]int{identityPerm(300), cycle}, "modelcheck: symmetry Perms are not closed under composition"},
		{"trivial", 3, nil, ""},
		{"S3", 3, SymmetricClasses(3, []int{0, 1, 2}).Perms, ""},
		{"C4", 4, CyclicRotations(4).Perms, ""},
		{"S{0,256} in 257", 257, SymmetricClasses(257, []int{0, 256}).Perms, ""},
		{"S{1,257} in 300", 300, SymmetricClasses(300, []int{1, 257}).Perms, ""},
		{"transposition in 70000", 70000, [][]int{identityPerm(70000), swap(70000, 3, 65539)}, ""},
	}
	for _, c := range cases {
		_, err := newReducer(counterFactory(c.n, 1), Reduced{Sym: Symmetry{Perms: c.perms}}, 0)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: valid group rejected: %v", c.name, err)
		case c.wantErr != "" && (err == nil || err.Error() != c.wantErr):
			t.Errorf("%s: err %v, want %q", c.name, err, c.wantErr)
		}
	}
}

// permKey renders a permutation as a map key for any process count.
func permKey(p []int) string {
	b := make([]byte, 0, 2*len(p))
	for _, v := range p {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return string(b)
}

// closedByProducts is the reference for Symmetry.group's closure check:
// the |G|² sweep that composes every ordered pair of members and looks
// the product up.
func closedByProducts(perms [][]int) bool {
	keys := make(map[string]bool, len(perms))
	for _, p := range perms {
		keys[permKey(p)] = true
	}
	c := make([]int, len(perms[0]))
	for _, a := range perms {
		for _, b := range perms {
			for i, j := range b {
				c[i] = a[j]
			}
			if !keys[permKey(c)] {
				return false
			}
		}
	}
	return true
}

// generated closes perms under composition (test-side, by fixpoint).
func generated(perms [][]int) [][]int {
	out := append([][]int(nil), perms...)
	keys := map[string]bool{}
	for _, p := range out {
		keys[permKey(p)] = true
	}
	for grew := true; grew; {
		grew = false
		for _, a := range out {
			for _, b := range out {
				c := make([]int, len(b))
				for i, j := range b {
					c[i] = a[j]
				}
				if k := permKey(c); !keys[k] {
					keys[k] = true
					out = append(out, c)
					grew = true
				}
			}
		}
	}
	return out
}

// TestSymmetryClosureMatchesReference: the generator-based closure check
// gives the |G|² sweep's verdict on every subset of S_3 containing the
// identity (in both orders), on seeded random subsets of S_4 and S_5,
// their generated subgroups and those subgroups less one member, and on
// SymmetricClasses and CyclicRotations up to n = 7.
func TestSymmetryClosureMatchesReference(t *testing.T) {
	const notClosed = "modelcheck: symmetry Perms are not closed under composition"
	checked, closed := 0, 0
	check := func(what string, perms [][]int) {
		t.Helper()
		checked++
		want := closedByProducts(perms)
		if want {
			closed++
		}
		_, err := Symmetry{Perms: perms}.group(len(perms[0]))
		switch {
		case want && err != nil:
			t.Errorf("%s: closed set rejected: %v", what, err)
		case !want && (err == nil || err.Error() != notClosed):
			t.Errorf("%s: err %v, want %q", what, err, notClosed)
		}
	}
	s3 := permutationsOf(3) // s3[0] is the identity
	for mask := 0; mask < 1<<(len(s3)-1); mask++ {
		perms := [][]int{s3[0]}
		for i := 1; i < len(s3); i++ {
			if mask>>(i-1)&1 == 1 {
				perms = append(perms, s3[i])
			}
		}
		check(fmt.Sprintf("S3 subset %v", perms), perms)
		rev := slices.Clone(perms)
		slices.Reverse(rev)
		check(fmt.Sprintf("S3 subset %v", rev), rev)
	}
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{4, 5} {
		all := permutationsOf(k)
		for trial := 0; trial < 60; trial++ {
			perms := [][]int{all[0]}
			for _, i := range rng.Perm(len(all) - 1)[:1+rng.Intn(4)] {
				perms = append(perms, all[i+1])
			}
			rng.Shuffle(len(perms), func(i, j int) { perms[i], perms[j] = perms[j], perms[i] })
			check(fmt.Sprintf("S%d random %v", k, perms), perms)
			g := generated(perms)
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
			check(fmt.Sprintf("S%d subgroup of order %d", k, len(g)), g)
			for i, p := range g {
				if !slices.Equal(p, identityPerm(k)) {
					less := slices.Delete(slices.Clone(g), i, i+1)
					check(fmt.Sprintf("S%d subgroup of order %d less one", k, len(g)), less)
					break
				}
			}
		}
	}
	for n := 1; n <= 7; n++ {
		check(fmt.Sprintf("C%d", n), CyclicRotations(n).Perms)
		followers := make([]int, n-1)
		for i := range followers {
			followers[i] = i + 1
		}
		check(fmt.Sprintf("S(followers) in %d", n), SymmetricClasses(n, followers).Perms)
		check(fmt.Sprintf("S(evens)xS(odds) in %d", n), SymmetricClasses(n, []int{0, 2, 4, 6}[:(n+1)/2], []int{1, 3, 5}[:n/2]).Perms)
	}
	if closed == 0 || closed == checked {
		t.Errorf("%d of %d sets closed: the cases must cover both verdicts", closed, checked)
	}
}

// lexLeast reports whether sched is lexicographically least in its orbit
// under perms — the invariant every visited representative must satisfy.
func lexLeast(sched []int, perms [][]int) bool {
	img := make([]int, len(sched))
	for _, p := range perms {
		for i, id := range sched {
			img[i] = p[id]
		}
		for i := range sched {
			if img[i] != sched[i] {
				if img[i] < sched[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

// reducedCase is one factory with the symmetry group it is reduced
// under.
type reducedCase struct {
	name string
	f    Factory
	sym  Symmetry
}

func swapConsensusFactory() Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromSwap(objects, "C", 10, 20)
		return sim.Config{Objects: objects, Programs: progs}
	}
}

// reducedExploreCases are the ExploreReduced oracle cases: counters,
// coins, the E4 race, Algorithm 2's ring and SWAP consensus.
func reducedExploreCases() []reducedCase {
	return []reducedCase{
		{"counter2x1/S2", counterFactory(2, 1), SymmetricClasses(2, []int{0, 1})},
		{"counter3x2/S3", counterFactory(3, 2), SymmetricClasses(3, []int{0, 1, 2})},
		{"counter3x2/S{0,1}", counterFactory(3, 2), SymmetricClasses(3, []int{0, 1})},
		{"counter3x2/trivial", counterFactory(3, 2), Symmetry{}},
		{"coin2x1/S2", coinFactory(2, 1), SymmetricClasses(2, []int{0, 1})},
		{"coin2x2/S2", coinFactory(2, 2), SymmetricClasses(2, []int{0, 1})},
		{"relaxedE4-3x3/S{1,2}", relaxedFactory(3, 3), SymmetricClasses(3, []int{1, 2})},
		{"ring3/C3", ringFactory(3), CyclicRotations(3)},
		{"ring4/C4", ringFactory(4), CyclicRotations(4)},
		{"swapCons/S2", swapConsensusFactory(), SymmetricClasses(2, []int{0, 1})},
	}
}

// reducedValencyCases are the AnalyzeValencyReduced oracle cases: every
// E11 protocol shape, the E4 race and a disagreeing counter.
func reducedValencyCases() []reducedCase {
	sym2 := SymmetricClasses(2, []int{0, 1})
	sym2.Rename = RenameByInputs([]sim.Value{10, 20})
	naiveSym := SymmetricClasses(3, []int{0, 2})
	naiveSym.Rename = RenameByInputs([]sim.Value{10, 20, 30})
	relSym := SymmetricClasses(3, []int{1, 2})
	relSym.Rename = RenameByInputs([]sim.Value{"solo", "p1", "p2"})
	counterSym := SymmetricClasses(3, []int{0, 1, 2})
	counterSym.Rename = identRename
	return []reducedCase{
		{"swap", twoProcs(consensus.TwoConsFromSwap), sym2},
		{"wrn2", twoProcs(consensus.TwoConsFromWRN2), sym2},
		{"tas", twoProcs(consensus.TwoConsFromTAS), sym2},
		{"queue", twoProcs(consensus.TwoConsFromQueue), sym2},
		{"fetchadd", twoProcs(consensus.TwoConsFromFetchAdd), sym2},
		{"naive3", func() sim.Config {
			objects := map[string]sim.Object{}
			progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{10, 20, 30})
			return sim.Config{Objects: objects, Programs: progs}
		}, naiveSym},
		{"relaxedE4-3x3", relaxedFactory(3, 3), relSym},
		{"counter3x2", counterFactory(3, 2), counterSym},
	}
}

// pinnedReports are the reduced engines' reports on the oracle cases as
// the reducer produced them when it replayed every node from the root.
// Carrying runs may change only Runs, which here holds that reducer's
// count.
var pinnedReports = map[string]SymmetryReport{
	"explore counter2x1/S2 dedup=true":         {Group: 2, Representatives: 2, Executions: 6, Configs: 19, ReducedConfigs: 9, Hits: 1, Misses: 9, Runs: 10, Deduped: true},
	"explore counter2x1/S2 dedup=false":        {Group: 2, Representatives: 3, Executions: 6, Configs: 19, ReducedConfigs: 10, Hits: 0, Misses: 0, Runs: 10, Deduped: false},
	"explore counter3x2/S3 dedup=true":         {Group: 6, Representatives: 29, Executions: 1680, Configs: 5248, ReducedConfigs: 152, Hits: 42, Misses: 152, Runs: 194, Deduped: true},
	"explore counter3x2/S3 dedup=false":        {Group: 6, Representatives: 280, Executions: 1680, Configs: 5248, ReducedConfigs: 877, Hits: 0, Misses: 0, Runs: 877, Deduped: false},
	"explore counter3x2/S{0,1} dedup=true":     {Group: 2, Representatives: 40, Executions: 1680, Configs: 5248, ReducedConfigs: 215, Hits: 63, Misses: 215, Runs: 278, Deduped: true},
	"explore counter3x2/S{0,1} dedup=false":    {Group: 2, Representatives: 840, Executions: 1680, Configs: 5248, ReducedConfigs: 2626, Hits: 0, Misses: 0, Runs: 2626, Deduped: false},
	"explore counter3x2/trivial dedup=true":    {Group: 1, Representatives: 49, Executions: 1680, Configs: 5248, ReducedConfigs: 271, Hits: 87, Misses: 271, Runs: 358, Deduped: true},
	"explore counter3x2/trivial dedup=false":   {Group: 1, Representatives: 1680, Executions: 1680, Configs: 5248, ReducedConfigs: 5248, Hits: 0, Misses: 0, Runs: 5248, Deduped: false},
	"explore coin2x1/S2 dedup=true":            {Group: 2, Representatives: 4, Executions: 8, Configs: 13, ReducedConfigs: 7, Hits: 0, Misses: 7, Runs: 10, Deduped: true},
	"explore coin2x1/S2 dedup=false":           {Group: 2, Representatives: 4, Executions: 8, Configs: 13, ReducedConfigs: 7, Hits: 0, Misses: 0, Runs: 10, Deduped: false},
	"explore coin2x2/S2 dedup=true":            {Group: 2, Representatives: 16, Executions: 96, Configs: 165, ReducedConfigs: 43, Hits: 24, Misses: 43, Runs: 100, Deduped: true},
	"explore coin2x2/S2 dedup=false":           {Group: 2, Representatives: 48, Executions: 96, Configs: 165, ReducedConfigs: 83, Hits: 0, Misses: 0, Runs: 124, Deduped: false},
	"explore relaxedE4-3x3/S{1,2} dedup=true":  {Group: 2, Representatives: 3, Executions: 476, Configs: 1448, ReducedConfigs: 51, Hits: 44, Misses: 51, Runs: 95, Deduped: true},
	"explore relaxedE4-3x3/S{1,2} dedup=false": {Group: 2, Representatives: 238, Executions: 476, Configs: 1448, ReducedConfigs: 726, Hits: 0, Misses: 0, Runs: 726, Deduped: false},
	"explore ring3/C3 dedup=true":              {Group: 3, Representatives: 2, Executions: 6, Configs: 16, ReducedConfigs: 6, Hits: 0, Misses: 6, Runs: 6, Deduped: true},
	"explore ring3/C3 dedup=false":             {Group: 3, Representatives: 2, Executions: 6, Configs: 16, ReducedConfigs: 6, Hits: 0, Misses: 0, Runs: 6, Deduped: false},
	"explore ring4/C4 dedup=true":              {Group: 4, Representatives: 4, Executions: 24, Configs: 65, ReducedConfigs: 14, Hits: 2, Misses: 14, Runs: 16, Deduped: true},
	"explore ring4/C4 dedup=false":             {Group: 4, Representatives: 6, Executions: 24, Configs: 65, ReducedConfigs: 17, Hits: 0, Misses: 0, Runs: 17, Deduped: false},
	"explore swapCons/S2 dedup=true":           {Group: 2, Representatives: 2, Executions: 6, Configs: 25, ReducedConfigs: 10, Hits: 1, Misses: 10, Runs: 11, Deduped: true},
	"explore swapCons/S2 dedup=false":          {Group: 2, Representatives: 3, Executions: 6, Configs: 25, ReducedConfigs: 13, Hits: 0, Misses: 0, Runs: 13, Deduped: false},
	"valency swap dedup=true":                  {Group: 2, Representatives: 2, Executions: 6, Configs: 25, ReducedConfigs: 10, Hits: 1, Misses: 10, Runs: 11, Deduped: true},
	"valency swap dedup=false":                 {Group: 2, Representatives: 3, Executions: 6, Configs: 25, ReducedConfigs: 13, Hits: 0, Misses: 0, Runs: 13, Deduped: false},
	"valency wrn2 dedup=true":                  {Group: 2, Representatives: 1, Executions: 2, Configs: 5, ReducedConfigs: 3, Hits: 0, Misses: 3, Runs: 3, Deduped: true},
	"valency wrn2 dedup=false":                 {Group: 2, Representatives: 1, Executions: 2, Configs: 5, ReducedConfigs: 3, Hits: 0, Misses: 0, Runs: 3, Deduped: false},
	"valency tas dedup=true":                   {Group: 2, Representatives: 2, Executions: 6, Configs: 25, ReducedConfigs: 10, Hits: 1, Misses: 10, Runs: 11, Deduped: true},
	"valency tas dedup=false":                  {Group: 2, Representatives: 3, Executions: 6, Configs: 25, ReducedConfigs: 13, Hits: 0, Misses: 0, Runs: 13, Deduped: false},
	"valency queue dedup=true":                 {Group: 2, Representatives: 2, Executions: 6, Configs: 25, ReducedConfigs: 10, Hits: 1, Misses: 10, Runs: 11, Deduped: true},
	"valency queue dedup=false":                {Group: 2, Representatives: 3, Executions: 6, Configs: 25, ReducedConfigs: 13, Hits: 0, Misses: 0, Runs: 13, Deduped: false},
	"valency fetchadd dedup=true":              {Group: 2, Representatives: 2, Executions: 6, Configs: 25, ReducedConfigs: 10, Hits: 1, Misses: 10, Runs: 11, Deduped: true},
	"valency fetchadd dedup=false":             {Group: 2, Representatives: 3, Executions: 6, Configs: 25, ReducedConfigs: 13, Hits: 0, Misses: 0, Runs: 13, Deduped: false},
	"valency naive3 dedup=true":                {Group: 2, Representatives: 3, Executions: 6, Configs: 16, ReducedConfigs: 9, Hits: 0, Misses: 9, Runs: 9, Deduped: true},
	"valency naive3 dedup=false":               {Group: 2, Representatives: 3, Executions: 6, Configs: 16, ReducedConfigs: 9, Hits: 0, Misses: 0, Runs: 9, Deduped: false},
	"valency relaxedE4-3x3 dedup=true":         {Group: 2, Representatives: 3, Executions: 476, Configs: 1448, ReducedConfigs: 51, Hits: 44, Misses: 51, Runs: 95, Deduped: true},
	"valency relaxedE4-3x3 dedup=false":        {Group: 2, Representatives: 238, Executions: 476, Configs: 1448, ReducedConfigs: 726, Hits: 0, Misses: 0, Runs: 726, Deduped: false},
	"valency counter3x2 dedup=true":            {Group: 6, Representatives: 29, Executions: 1680, Configs: 5248, ReducedConfigs: 152, Hits: 42, Misses: 152, Runs: 194, Deduped: true},
	"valency counter3x2 dedup=false":           {Group: 6, Representatives: 280, Executions: 1680, Configs: 5248, ReducedConfigs: 877, Hits: 0, Misses: 0, Runs: 877, Deduped: false},
}

// checkPinnedReport compares every report field but Runs with the pin,
// and requires Runs to beat the pinned replay-every-node count wherever
// the tree has an internal node (more configurations than executions).
func checkPinnedReport(t *testing.T, what string, noDedup bool, got *SymmetryReport) {
	t.Helper()
	key := fmt.Sprintf("%s dedup=%v", what, !noDedup)
	want, ok := pinnedReports[key]
	if !ok {
		t.Fatalf("%s: no pinned report", key)
	}
	cmp := *got
	cmp.Runs = want.Runs
	if cmp != want {
		t.Errorf("%s: report %+v, pinned %+v (Runs aside)", key, *got, want)
	}
	if want.Configs > want.Executions && got.Runs >= want.Runs {
		t.Errorf("%s: %d runs, want fewer than the %d of a replay per node", key, got.Runs, want.Runs)
	}
}

// naiveCount is the naive oracle's execution count for f.
func naiveCount(t *testing.T, f Factory) int {
	t.Helper()
	n := 0
	if err := naiveExplore(f, nil, nil, func(Execution) { n++ }); err != nil {
		t.Fatalf("naive oracle: %v", err)
	}
	return n
}

// TestReducedOracleExplore is the tentpole cross-check for ExploreReduced:
// across every experiment-shaped factory and its symmetry group, with the
// transposition table on and off, the reconstructed execution count must
// equal the naive oracle's count, the visited representatives must be
// canonical (lex-least in their orbits), and without dedup the visited
// orbit sizes must sum back to the full count. Every report field but
// Runs must equal its pin.
func TestReducedOracleExplore(t *testing.T) {
	for _, c := range reducedExploreCases() {
		want := naiveCount(t, c.f)
		perms := c.sym.Perms
		if len(perms) == 0 {
			perms = [][]int{identityPerm(len(c.f().Programs))}
		}
		for _, noDedup := range []bool{false, true} {
			visited, orbitSum := 0, 0
			rep, err := ExploreReduced(c.f, Reduced{Sym: c.sym, noDedup: noDedup}, 0, func(e Execution, orbit int) error {
				visited++
				orbitSum += orbit
				if !lexLeast(e.Schedule, perms) {
					return fmt.Errorf("non-canonical representative %v", e.Schedule)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s dedup=%v: %v", c.name, !noDedup, err)
			}
			checkPinnedReport(t, "explore "+c.name, noDedup, rep)
			if rep.Executions != want {
				t.Errorf("%s dedup=%v: reconstructed %d executions, want %d (report %+v)",
					c.name, !noDedup, rep.Executions, want, rep)
			}
			if rep.Group != len(perms) {
				t.Errorf("%s: group %d, want %d", c.name, rep.Group, len(perms))
			}
			if rep.Representatives != visited {
				t.Errorf("%s dedup=%v: Representatives %d, visits %d", c.name, !noDedup, rep.Representatives, visited)
			}
			if noDedup {
				if rep.Deduped {
					t.Errorf("%s: noDedup ignored", c.name)
				}
				if orbitSum != want {
					t.Errorf("%s: orbit sizes sum to %d, want %d", c.name, orbitSum, want)
				}
			} else if !rep.Deduped {
				t.Errorf("%s: dedup unexpectedly unavailable (report %+v)", c.name, rep)
			}
		}
	}
}

// trap hangs every caller, the way a one-shot object answers an
// illegal second use. It has no state, so its signature is empty.
type trap struct{}

func (trap) Apply(*sim.Env, sim.Invocation) sim.Response { return sim.HangCaller() }

func (trap) AppendStateSig(dst []byte) []byte { return dst }

// hangFactory runs process 0 into the trap while processes 1 and 2 each
// increment a counter and read it, so there are nodes where process 0
// has hung and a follower is still enabled.
func hangFactory() Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{"C": registers.NewCounter(), "T": trap{}}
		c := registers.CounterRef{Name: "C"}
		follower := func(ctx *sim.Ctx) sim.Value {
			c.Inc(ctx)
			return c.Read(ctx)
		}
		return sim.Config{Objects: objects, Programs: []sim.Program{
			func(ctx *sim.Ctx) sim.Value { return ctx.Invoke("T", "spring") },
			follower,
			follower,
		}}
	}
}

// latch hangs a "spring" once a "set" has been applied, and answers
// every other call.
type latch struct{ set bool }

func (l *latch) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if inv.Op == "set" {
		l.set = true
	} else if l.set {
		return sim.HangCaller()
	}
	return sim.Respond(nil)
}

func (l *latch) AppendStateSig(dst []byte) []byte { return sim.AppendValueSig(dst, l.set) }

// latchFactory hangs process 1 at its first step only if process 0
// stepped first; otherwise process 1 takes one more step and finishes.
// The search steps process 0 first, so it takes the hanging branch
// first and then rewinds past the hung step.
func latchFactory() Factory {
	return func() sim.Config {
		return sim.Config{Objects: map[string]sim.Object{"L": &latch{}}, Programs: []sim.Program{
			func(ctx *sim.Ctx) sim.Value { return ctx.Invoke("L", "set") },
			func(ctx *sim.Ctx) sim.Value {
				ctx.Invoke("L", "spring")
				return ctx.Invoke("L", "set")
			},
		}}
	}
}

// TestReducedSignsLikeAStoppedReplay: at every node the reduced engines
// sign, the carried run's signature must be byte-equal to that of the
// node's prefix replayed from the root and stopped there (signFromRoot),
// which is how the reducer signed nodes before it carried runs. The
// hang case checks the Hung status byte at parked nodes, and the latch
// case that a rewind past a hung step takes its Hung byte back.
func TestReducedSignsLikeAStoppedReplay(t *testing.T) {
	hangSym := SymmetricClasses(3, []int{1, 2})
	hangSym.Rename = identRename
	explore := append(reducedExploreCases(), reducedCase{"hang3/S{1,2}", hangFactory(), hangSym},
		reducedCase{"latch2", latchFactory(), Symmetry{}})
	valency := append(reducedValencyCases(), reducedCase{"hang3", hangFactory(), hangSym},
		reducedCase{"latch2", latchFactory(), Symmetry{}})
	for _, engine := range []struct {
		name  string
		cases []reducedCase
		run   func(*reducer) (*SymmetryReport, error)
	}{
		{"explore", explore, func(red *reducer) (*SymmetryReport, error) { return red.explore(nil) }},
		{"valency", valency, func(red *reducer) (*SymmetryReport, error) {
			_, rep, err := red.valency()
			return rep, err
		}},
	} {
		for _, c := range engine.cases {
			what := engine.name + " " + c.name
			red, err := newReducer(c.f, Reduced{Sym: c.sym}, 0)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			signed, hungParked, bad := 0, 0, 0
			red.onSign = func(sig []byte) {
				signed++
				if liveParked(red) && slices.Contains(red.hung, true) {
					hungParked++
				}
				want, err := signFromRoot(c.f, red.sched, red.choices)
				if err != nil {
					t.Fatalf("%s: replaying %v %v: %v", what, red.sched, red.choices, err)
				}
				if !bytes.Equal(sig, want) {
					if bad++; bad <= 3 {
						t.Errorf("%s: node %v choices %v: signed %x, stopped replay %x", what, red.sched, red.choices, sig, want)
					}
				}
			}
			rep, err := engine.run(red)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if signed != rep.Hits+rep.Misses || signed == 0 {
				t.Errorf("%s: %d signatures checked, want hits+misses = %d", what, signed, rep.Hits+rep.Misses)
			}
			if strings.HasPrefix(c.name, "hang3") && hungParked == 0 {
				t.Errorf("%s: no parked node carried a Hung byte", what)
			}
		}
	}
}

// TestReducedRepresentativesReplay: with the transposition table on and
// off, every representative ExploreReduced visits is the execution its
// own schedule and choices replay to from the root, down to the
// rendered trace.
func TestReducedRepresentativesReplay(t *testing.T) {
	for _, c := range reducedExploreCases() {
		for _, noDedup := range []bool{false, true} {
			visits := 0
			_, err := ExploreReduced(c.f, Reduced{Sym: c.sym, noDedup: noDedup}, 0, func(e Execution, _ int) error {
				visits++
				res, err := runFromRoot(c.f, nil, e.Schedule, e.Choices)
				if err != nil {
					return fmt.Errorf("replaying %v %v: %w", e.Schedule, e.Choices, err)
				}
				want := renderExec(Execution{Schedule: e.Schedule, Choices: e.Choices, Result: res})
				if got := renderExec(e); got != want {
					return fmt.Errorf("representative diverges from its replay:\n got %q\nwant %q", got, want)
				}
				return nil
			})
			if err != nil {
				t.Errorf("%s dedup=%v: %v", c.name, !noDedup, err)
			}
			if visits == 0 {
				t.Errorf("%s dedup=%v: no representative visited", c.name, !noDedup)
			}
		}
	}
}

// TestReducedDedupReachesFixpoint: on a workload with heavy state
// sharing, the transposition table must actually fire — and the visited
// representative set with dedup must be a subset of the one without.
func TestReducedDedupReachesFixpoint(t *testing.T) {
	f := counterFactory(3, 2)
	sym := SymmetricClasses(3, []int{0, 1, 2})
	full := map[string]bool{}
	if _, err := ExploreReduced(f, Reduced{Sym: sym, noDedup: true}, 0, func(e Execution, orbit int) error {
		full[fmt.Sprint(e.Schedule, e.Choices)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := ExploreReduced(f, Reduced{Sym: sym}, 0, func(e Execution, orbit int) error {
		if !full[fmt.Sprint(e.Schedule, e.Choices)] {
			return fmt.Errorf("deduped run visited %v %v, unseen without dedup", e.Schedule, e.Choices)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits == 0 {
		t.Errorf("no transposition hits on a diamond-heavy workload (report %+v)", rep)
	}
	if rep.Misses != rep.ReducedConfigs {
		t.Errorf("Misses %d != ReducedConfigs %d with dedup on", rep.Misses, rep.ReducedConfigs)
	}
}

// TestReducedOracleValency cross-checks AnalyzeValencyReduced against
// the naive oracle's report on every E11 protocol shape: all verdict
// fields must be equal, a disagreeing protocol's canonical-first
// schedule must replay to a genuinely disagreeing execution, and every
// symmetry-report field but Runs must equal its pin.
func TestReducedOracleValency(t *testing.T) {
	for _, c := range reducedValencyCases() {
		want, err := naiveReport(c.f, nil)
		if err != nil {
			t.Fatalf("%s: naive oracle: %v", c.name, err)
		}
		for _, noDedup := range []bool{false, true} {
			got, srep, err := AnalyzeValencyReduced(c.f, Reduced{Sym: c.sym, noDedup: noDedup}, 0)
			if err != nil {
				t.Fatalf("%s dedup=%v: %v", c.name, !noDedup, err)
			}
			checkPinnedReport(t, "valency "+c.name, noDedup, srep)
			// DisagreementSchedule is canonical-first rather than
			// DFS-first (documented); every other field must match.
			gotCmp, wantCmp := *got, *want
			gotCmp.DisagreementSchedule, wantCmp.DisagreementSchedule = nil, nil
			if !reflect.DeepEqual(&gotCmp, &wantCmp) {
				t.Errorf("%s dedup=%v: report diverges:\n got %+v\nwant %+v", c.name, !noDedup, got, want)
			}
			if srep.Executions != want.Executions || srep.Configs != want.Configs {
				t.Errorf("%s dedup=%v: symmetry accounting (%d configs, %d execs) != unreduced (%d, %d)",
					c.name, !noDedup, srep.Configs, srep.Executions, want.Configs, want.Executions)
			}
			if !got.Agreement {
				res, rerr := runFromRoot(c.f, nil, got.DisagreementSchedule, nil)
				if rerr != nil {
					t.Fatalf("%s: replaying disagreement %v: %v", c.name, got.DisagreementSchedule, rerr)
				}
				if vals := decisionValues(res); len(vals) < 2 {
					t.Errorf("%s: schedule %v replays to decisions %v, want a disagreement",
						c.name, got.DisagreementSchedule, vals)
				}
			}
		}
	}
}

// TestReducedBudgetParity: in every engine, ErrLimit fires exactly when
// the naive oracle's execution count exceeds the limit, with the same
// rendering, even though the reduced budget is charged in orbit-sized
// chunks. Below the limit each engine reconstructs the full count.
func TestReducedBudgetParity(t *testing.T) {
	f := counterFactory(3, 2)
	sym := SymmetricClasses(3, []int{0, 1, 2})
	symRen := sym
	symRen.Rename = identRename
	total := naiveCount(t, f)
	for _, limit := range []int{total, total - 1, 1} {
		var want error
		if total > limit {
			want = errLimitExceeded(limit)
		}
		for _, e := range []struct {
			name string
			run  func() (int, error)
		}{
			{"Explore", func() (int, error) { return Explore(f, limit, func(Execution) error { return nil }) }},
			{"ExploreReduced", func() (int, error) {
				rep, err := ExploreReduced(f, Reduced{Sym: sym}, limit, nil)
				return rep.Executions, err
			}},
			{"AnalyzeValency", func() (int, error) {
				rep, err := AnalyzeValency(f, limit)
				if err != nil {
					return 0, err
				}
				return rep.Executions, nil
			}},
			{"AnalyzeValencyReduced", func() (int, error) {
				rep, _, err := AnalyzeValencyReduced(f, Reduced{Sym: symRen}, limit)
				if err != nil {
					return 0, err
				}
				return rep.Executions, nil
			}},
		} {
			n, err := e.run()
			switch {
			case want == nil && err != nil:
				t.Errorf("limit=%d: %s err %v, want nil", limit, e.name, err)
			case want == nil && n != total:
				t.Errorf("limit=%d: %s counted %d executions, want %d", limit, e.name, n, total)
			case want != nil && (err == nil || err.Error() != want.Error()):
				t.Errorf("limit=%d: %s err %v, want %v", limit, e.name, err, want)
			}
		}
	}
}

// TestReducedValencyRejectsNondeterminism: same errNondetValency wrap as
// the naive oracle.
func TestReducedValencyRejectsNondeterminism(t *testing.T) {
	_, wantErr := naiveReport(coinFactory(1, 1), nil)
	if wantErr == nil {
		t.Fatal("naive oracle accepted a nondeterministic object")
	}
	_, _, err := AnalyzeValencyReduced(coinFactory(1, 1), Reduced{}, 0)
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
}

// TestReducedValencyRequiresRename: a nontrivial group without a value
// renaming is rejected up front (value sets of orbit siblings are images
// of each other, so the closure needs Rename).
func TestReducedValencyRequiresRename(t *testing.T) {
	_, _, err := AnalyzeValencyReduced(counterFactory(2, 1), Reduced{Sym: SymmetricClasses(2, []int{0, 1})}, 0)
	if err == nil {
		t.Fatal("nontrivial group without Rename accepted")
	}
}

// TestExploreLimitBoundary pins the documented budget contract at the
// exact boundary: at limit == total the full count comes back with no
// error; at limit == total−1 exactly limit executions are visited
// before the canonical ErrLimit.
func TestExploreLimitBoundary(t *testing.T) {
	f := counterFactory(3, 2)
	total, err := Explore(f, 0, func(Execution) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{total, total - 1} {
		visits := 0
		n, err := Explore(f, limit, func(e Execution) error {
			visits++
			return nil
		})
		if limit == total {
			if err != nil || n != total {
				t.Fatalf("limit==total: (%d, %v), want (%d, nil)", n, err, total)
			}
		} else {
			if !errors.Is(err, ErrLimit) {
				t.Fatalf("limit==total-1: err = %v, want ErrLimit", err)
			}
			if n != limit {
				t.Fatalf("limit==total-1: count %d, want %d (the number of executions visited)", n, limit)
			}
		}
		if visits != n {
			t.Fatalf("limit=%d: %d visits but count %d", limit, visits, n)
		}
	}
}

// TestScriptDivergenceDetected: an out-of-range replayed choice value
// must surface as ErrScriptDivergence instead of being silently wrapped
// modulo the demand.
func TestScriptDivergenceDetected(t *testing.T) {
	_, err := runFromRoot(coinFactory(1, 1), nil, []int{0}, []int{5})
	if !errors.Is(err, ErrScriptDivergence) {
		t.Fatalf("err = %v, want ErrScriptDivergence", err)
	}
	want := `script[0] = 5 but object "coin" demanded Intn(2)`
	if got := err.Error(); !contains(got, want) {
		t.Errorf("err = %q, want it to contain %q", got, want)
	}
	// In-range scripts replay unchanged.
	if _, err := runFromRoot(coinFactory(1, 1), nil, []int{0}, []int{1}); err != nil {
		t.Errorf("in-range script: %v", err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReducedVisitStopsExploration: a visit error aborts the reduced
// engine just like the unreduced one.
func TestReducedVisitStopsExploration(t *testing.T) {
	boom := errors.New("boom")
	visits := 0
	_, err := ExploreReduced(counterFactory(3, 2), Reduced{Sym: SymmetricClasses(3, []int{0, 1, 2})}, 0,
		func(Execution, int) error {
			visits++
			if visits == 2 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if visits != 2 {
		t.Errorf("visits = %d, want 2", visits)
	}
}

// TestReducedValuesSorted: the closure-rendered Values list is sorted,
// like the unreduced report's.
func TestReducedValuesSorted(t *testing.T) {
	sym := SymmetricClasses(3, []int{0, 2})
	sym.Rename = RenameByInputs([]sim.Value{10, 20, 30})
	rep, _, err := AnalyzeValencyReduced(func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{10, 20, 30})
		return sim.Config{Objects: objects, Programs: progs}
	}, Reduced{Sym: sym}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(rep.Values) {
		t.Errorf("Values not sorted: %v", rep.Values)
	}
}
