package modelcheck

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"detobj/internal/consensus"
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

// TestReducedOracleExplore is the tentpole cross-check for ExploreReduced:
// across every experiment-shaped factory and its symmetry group, with the
// transposition table on and off, the reconstructed execution count must
// equal the unreduced Explore count, the visited representatives must be
// canonical (lex-least in their orbits), and without dedup the visited
// orbit sizes must sum back to the full count.
func TestReducedOracleExplore(t *testing.T) {
	cases := []struct {
		name string
		f    Factory
		sym  Symmetry
	}{
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
	for _, c := range cases {
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
// equal, and a disagreeing protocol's canonical-first schedule must
// replay to a genuinely disagreeing execution.
func TestReducedOracleValency(t *testing.T) {
	sym2 := SymmetricClasses(2, []int{0, 1})
	sym2.Rename = RenameByInputs([]sim.Value{10, 20})
	naiveSym := SymmetricClasses(3, []int{0, 2})
	naiveSym.Rename = RenameByInputs([]sim.Value{10, 20, 30})
	relSym := SymmetricClasses(3, []int{1, 2})
	relSym.Rename = RenameByInputs([]sim.Value{"solo", "p1", "p2"})
	counterSym := SymmetricClasses(3, []int{0, 1, 2})
	counterSym.Rename = identRename

	cases := []struct {
		name string
		f    Factory
		sym  Symmetry
	}{
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
	for _, c := range cases {
		want, err := AnalyzeValency(c.f, 0)
		if err != nil {
			t.Fatalf("%s: AnalyzeValency: %v", c.name, err)
		}
		for _, noDedup := range []bool{false, true} {
			got, srep, err := AnalyzeValencyReduced(c.f, Reduced{Sym: c.sym, NoDedup: noDedup}, 0)
			if err != nil {
				t.Fatalf("%s dedup=%v: %v", c.name, !noDedup, err)
			}
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

// TestExploreLimitBoundaryParity pins the documented budget contract at
// the exact boundary for both engines: at limit == total the full count
// comes back with no error; at limit == total−1 exactly limit executions
// are visited before the canonical ErrLimit, with identical (count,
// error) pairs and a canonical visited prefix.
func TestExploreLimitBoundaryParity(t *testing.T) {
	f := counterFactory(3, 2)
	total, err := Explore(f, 0, func(Execution) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	errStr := func(e error) string {
		if e == nil {
			return "<nil>"
		}
		return e.Error()
	}
	for _, limit := range []int{total, total - 1} {
		var seq []string
		seqN, seqErr := Explore(f, limit, func(e Execution) error {
			seq = append(seq, renderExec(e))
			return nil
		})
		if limit == total {
			if seqErr != nil || seqN != total {
				t.Fatalf("limit==total: (%d, %v), want (%d, nil)", seqN, seqErr, total)
			}
		} else {
			if !errors.Is(seqErr, ErrLimit) {
				t.Fatalf("limit==total-1: err = %v, want ErrLimit", seqErr)
			}
			if seqN != limit {
				t.Fatalf("limit==total-1: count %d, want %d (the number of executions visited)", seqN, limit)
			}
		}
		if len(seq) != seqN {
			t.Fatalf("limit=%d: %d visits but count %d", limit, len(seq), seqN)
		}
		for _, workers := range []int{2, 4} {
			var got []string
			n, perr := ExploreParallel(f, limit, workers, func(e Execution) error {
				got = append(got, renderExec(e))
				return nil
			})
			if n != seqN || errStr(perr) != errStr(seqErr) {
				t.Errorf("limit=%d workers=%d: (%d, %q), want (%d, %q)", limit, workers, n, errStr(perr), seqN, errStr(seqErr))
			}
			// On the ErrLimit path the parallel engine may visit fewer
			// executions (documented), but always a canonical prefix.
			if len(got) > len(seq) {
				t.Fatalf("limit=%d workers=%d: %d visits > sequential %d", limit, workers, len(got), len(seq))
			}
			for i := range got {
				if got[i] != seq[i] {
					t.Fatalf("limit=%d workers=%d: visit %d diverges", limit, workers, i)
				}
			}
			if limit == total && len(got) != len(seq) {
				t.Errorf("limit==total workers=%d: %d visits, want %d", workers, len(got), len(seq))
			}
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
