package modelcheck

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/registers"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/wrn"
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

func TestSymmetryGroupValidation(t *testing.T) {
	cases := []struct {
		name  string
		perms [][]int
	}{
		{"no identity", [][]int{{1, 0}}},
		{"not closed", [][]int{{0, 1, 2}, {1, 2, 0}}}, // missing the second rotation
		{"wrong length", [][]int{{0, 1}}},
		{"not a permutation", [][]int{{0, 1, 2}, {0, 0, 2}}},
		{"duplicate", [][]int{{0, 1, 2}, {0, 1, 2}}},
	}
	for _, c := range cases {
		_, err := ExploreReduced(counterFactory(3, 1), Reduced{Sym: Symmetry{Perms: c.perms}}, 0, nil)
		if err == nil {
			t.Errorf("%s: group accepted", c.name)
		}
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

// TestReducedOracleExplore is the tentpole cross-check for ExploreReduced:
// across every experiment-shaped factory and its symmetry group, with the
// transposition table on and off, the reconstructed execution count must
// equal the unreduced Explore count, the visited representatives must be
// canonical (lex-least in their orbits), and without dedup the visited
// orbit sizes must sum back to the full count. Every report field but
// Runs must equal its pin.
func TestReducedOracleExplore(t *testing.T) {
	for _, c := range reducedExploreCases() {
		want, err := Explore(c.f, 0, func(Execution) error { return nil })
		if err != nil {
			t.Fatalf("%s: Explore: %v", c.name, err)
		}
		perms := c.sym.Perms
		if len(perms) == 0 {
			perms = [][]int{identityPerm(len(c.f().Programs))}
		}
		for _, noDedup := range []bool{false, true} {
			visited, orbitSum := 0, 0
			rep, err := ExploreReduced(c.f, Reduced{Sym: c.sym, NoDedup: noDedup}, 0, func(e Execution, orbit int) error {
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
					t.Errorf("%s: NoDedup ignored", c.name)
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

// TestReducedSignsLikeAStoppedReplay: at every node the reduced engines
// sign, the carried run's signature must be byte-equal to that of the
// node's prefix replayed from the root and stopped there (signFromRoot),
// which is how the reducer signed nodes before it carried runs. The
// hang case checks the Hung status byte at parked nodes.
func TestReducedSignsLikeAStoppedReplay(t *testing.T) {
	hangSym := SymmetricClasses(3, []int{1, 2})
	hangSym.Rename = identRename
	explore := append(reducedExploreCases(), reducedCase{"hang3/S{1,2}", hangFactory(), hangSym})
	valency := append(reducedValencyCases(), reducedCase{"hang3", hangFactory(), hangSym})
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
				if red.d.parked && slices.Contains(red.hung, true) {
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

// TestReducedDedupReachesFixpoint: on a workload with heavy state
// sharing, the transposition table must actually fire — and the visited
// representative set with dedup must be a subset of the one without.
func TestReducedDedupReachesFixpoint(t *testing.T) {
	f := counterFactory(3, 2)
	sym := SymmetricClasses(3, []int{0, 1, 2})
	full := map[string]bool{}
	if _, err := ExploreReduced(f, Reduced{Sym: sym, NoDedup: true}, 0, func(e Execution, orbit int) error {
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
// AnalyzeValency on every E11 protocol shape: all verdict fields must be
// equal, a disagreeing protocol's canonical-first schedule must replay
// to a genuinely disagreeing execution, and every symmetry-report field
// but Runs must equal its pin.
func TestReducedOracleValency(t *testing.T) {
	for _, c := range reducedValencyCases() {
		want, err := AnalyzeValency(c.f, 0)
		if err != nil {
			t.Fatalf("%s: AnalyzeValency: %v", c.name, err)
		}
		for _, noDedup := range []bool{false, true} {
			got, srep, err := AnalyzeValencyReduced(c.f, Reduced{Sym: c.sym, NoDedup: noDedup}, 0)
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

// TestReducedBudgetParity: whether ErrLimit fires — and its rendering —
// must match the unreduced engines at the exact boundary, even though
// the reduced budget is charged in orbit-sized chunks.
func TestReducedBudgetParity(t *testing.T) {
	f := counterFactory(3, 2)
	sym := SymmetricClasses(3, []int{0, 1, 2})
	total, err := Explore(f, 0, func(Execution) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{total, total - 1, 1} {
		_, seqErr := Explore(f, limit, func(Execution) error { return nil })
		rep, redErr := ExploreReduced(f, Reduced{Sym: sym}, limit, nil)
		if (seqErr == nil) != (redErr == nil) {
			t.Fatalf("limit=%d: Explore err %v, ExploreReduced err %v", limit, seqErr, redErr)
		}
		if seqErr != nil && seqErr.Error() != redErr.Error() {
			t.Errorf("limit=%d: error %q, want %q", limit, redErr, seqErr)
		}
		if redErr == nil && rep.Executions != total {
			t.Errorf("limit=%d: reconstructed %d, want %d", limit, rep.Executions, total)
		}

		symRen := sym
		symRen.Rename = identRename
		_, seqValErr := AnalyzeValency(f, limit)
		_, _, redValErr := AnalyzeValencyReduced(f, Reduced{Sym: symRen}, limit)
		if (seqValErr == nil) != (redValErr == nil) {
			t.Fatalf("limit=%d: AnalyzeValency err %v, AnalyzeValencyReduced err %v", limit, seqValErr, redValErr)
		}
		if seqValErr != nil && seqValErr.Error() != redValErr.Error() {
			t.Errorf("limit=%d: valency error %q, want %q", limit, redValErr, seqValErr)
		}
	}
}

// TestReducedValencyRejectsNondeterminism: same errNondetValency wrap as
// the unreduced engine.
func TestReducedValencyRejectsNondeterminism(t *testing.T) {
	_, seqErr := AnalyzeValency(coinFactory(1, 1), 0)
	if seqErr == nil {
		t.Fatal("sequential engine accepted a nondeterministic object")
	}
	_, _, err := AnalyzeValencyReduced(coinFactory(1, 1), Reduced{}, 0)
	if err == nil || err.Error() != seqErr.Error() {
		t.Errorf("err = %v, want %v", err, seqErr)
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

// TestRenderValuesMatchesFmt pins the DecisionVectors key format to
// fmt.Sprint's slice rendering across every value shape the zoo uses.
func TestRenderValuesMatchesFmt(t *testing.T) {
	vs := []sim.Value{nil, 1, -3, "x", true, false, wrn.Bottom}
	if got, want := renderValues(vs), fmt.Sprint(vs); got != want {
		t.Errorf("renderValues = %q, fmt.Sprint = %q", got, want)
	}
	if got, want := renderValues(nil), fmt.Sprint([]sim.Value{}); got != want {
		t.Errorf("renderValues(nil) = %q, fmt.Sprint(empty) = %q", got, want)
	}
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
