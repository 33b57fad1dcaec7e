package modelcheck

// equiv_oracle_test.go is the table-free oracle for the Lemma 38
// engine: a plain breadth-first search over clones, classes from a
// string-signature refinement that re-steps every state, and every
// verdict re-stepped through classifyStep. Outputs are compared as
// fmt.Sprint renders them. The engine's report and ObsClasses's
// partition must equal the oracle's exactly, list order and class
// numbering included, and the E6 reports are pinned by digest.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// stepFinite applies inv to a copy of s and returns the successor and
// the rendered output. A hang leaves the state unchanged (the operation
// never completes) and reports hung instead of an output.
func stepFinite(s Finite, inv sim.Invocation) (next Finite, out string, hung bool) {
	next = s.CloneObject().(Finite)
	resp := next.Apply(&sim.Env{}, inv)
	if resp.Effect == sim.Hang {
		return s, "", true
	}
	return next, fmt.Sprint(resp.Value), false
}

// classifyStep is the table-free classify: it re-steps the object per
// verdict. Distinguishing verdicts depend only on the issuer's outputs
// plus the supplied equivalence, so callers with unbounded spaces pass a
// conservative cls (e.g. state identity).
func classifyStep(s Finite, a, b sim.Invocation, cls func(Finite) int) pairVerdict {
	sa, outA, hungA := stepFinite(s, a)
	sb, _, _ := stepFinite(s, b)
	sba, outAafterB, hungAafterB := stepFinite(sb, a)
	if hungA || hungAafterB {
		return pairDegenerate
	}
	if outA != outAafterB {
		return pairDistinguish
	}
	if cls(sa) == cls(sba) {
		return pairIndist // overwriting: b's step is invisible to a's issuer
	}
	sab, _, _ := stepFinite(sa, b)
	if cls(sab) == cls(sba) {
		return pairIndist // commuting
	}
	return pairDistinguish
}

// sortedKeys returns the keys of states in sorted order.
func sortedKeys(states map[string]Finite) []string {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// naiveClasses is ObsClasses without a transition table, on a state set
// closed under the alphabet: a string-signature partition refinement
// that re-steps every (state, operation) each round. Classes are
// numbered first-seen in sorted-key order, so the map equals
// ObsClasses's exactly.
func naiveClasses(states map[string]Finite, alphabet []sim.Invocation) map[string]int {
	keys := sortedKeys(states)
	class := make(map[string]int, len(keys))
	for _, k := range keys {
		class[k] = 0
	}
	for {
		next := make(map[string]int, len(keys))
		sigs := map[string]int{}
		for _, k := range keys {
			var sig strings.Builder
			for _, inv := range alphabet {
				succ, out, hung := stepFinite(states[k], inv)
				c, ok := class[succ.StateKey()]
				if !ok {
					panic("oracle: successor outside the state set")
				}
				if hung {
					fmt.Fprintf(&sig, "hang>%d;", c)
				} else {
					fmt.Fprintf(&sig, "%q>%d;", out, c)
				}
			}
			id, ok := sigs[sig.String()]
			if !ok {
				id = len(sigs)
				sigs[sig.String()] = id
			}
			next[k] = id
		}
		if reflect.DeepEqual(next, class) {
			return class
		}
		class = next
	}
}

// naiveIndist is CheckIndistinguishability without a transition table.
func naiveIndist(init Finite, alphabet []sim.Invocation, maxStates int) (*IndistReport, error) {
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	states := map[string]Finite{init.StateKey(): init}
	for frontier := []Finite{init}; len(frontier) > 0; {
		var next []Finite
		for _, s := range frontier {
			for _, inv := range alphabet {
				succ, _, _ := stepFinite(s, inv)
				k := succ.StateKey()
				if _, seen := states[k]; seen {
					continue
				}
				if len(states) >= maxStates {
					return nil, fmt.Errorf("modelcheck: state space exceeds %d states", maxStates)
				}
				states[k] = succ
				next = append(next, succ)
			}
		}
		frontier = next
	}
	classes := naiveClasses(states, alphabet)
	cls := func(s Finite) int {
		c, ok := classes[s.StateKey()]
		if !ok {
			panic("oracle: state outside the classified closure")
		}
		return c
	}
	keys := sortedKeys(states)
	rep := &IndistReport{States: len(keys), Pairs: len(keys) * len(alphabet) * len(alphabet)}
	for _, k := range keys {
		for _, a := range alphabet {
			for _, b := range alphabet {
				va := classifyStep(states[k], a, b, cls)
				vb := classifyStep(states[k], b, a, cls)
				if va == pairIndist || vb == pairIndist {
					continue
				}
				f := PairFailure{State: k, A: a, B: b}
				if va == pairDistinguish || vb == pairDistinguish {
					rep.Failures = append(rep.Failures, f)
				} else {
					rep.Degenerate = append(rep.Degenerate, f)
				}
			}
		}
	}
	return rep, nil
}

// indistRow is one object and alphabet for the Lemma 38 engine.
type indistRow struct {
	name      string
	init      func() Finite
	alpha     []sim.Invocation
	maxStates int
}

// e6Rows are E6's zoo as cmd/modelcheck builds it ("cmd/…": writes of p
// and q, WRN writes of v0 and v1) and as the benchmark builds it for
// seed 1 ("bench/…": writes of p.1 and q.1, WRN ops interleaved per
// index), with WRN_k up to k = 6.
func e6Rows() []indistRow {
	reg := func(p, q string) []sim.Invocation {
		return []sim.Invocation{{Op: "read"}, {Op: "write", Args: []sim.Value{p}}, {Op: "write", Args: []sim.Value{q}}}
	}
	swap := func(p, q string) []sim.Invocation {
		return []sim.Invocation{{Op: "swap", Args: []sim.Value{p}}, {Op: "swap", Args: []sim.Value{q}}}
	}
	propose := func(p, q string) []sim.Invocation {
		return []sim.Invocation{{Op: "propose", Args: []sim.Value{p}}, {Op: "propose", Args: []sim.Value{q}}}
	}
	benchWRN := func(k int) []sim.Invocation {
		var ops []sim.Invocation
		for i := 0; i < k; i++ {
			ops = append(ops, sim.Invocation{Op: "WRN", Args: []sim.Value{i, "p.1"}},
				sim.Invocation{Op: "WRN", Args: []sim.Value{i, "q.1"}})
		}
		return ops
	}
	wrnRow := func(name string, k int, alpha []sim.Invocation) indistRow {
		return indistRow{name, func() Finite { return wrn.New(k) }, alpha, 1 << 15}
	}
	var rows []indistRow
	for _, src := range []struct {
		prefix, p, q string
		wrnAlpha     func(k int) []sim.Invocation
	}{
		{"cmd", "p", "q", func(k int) []sim.Invocation { return WRNAlphabet(k, 2) }},
		{"bench", "p.1", "q.1", benchWRN},
	} {
		rows = append(rows, indistRow{src.prefix + "/register", func() Finite { return registers.New("init") }, reg(src.p, src.q), 1 << 15})
		for k := 3; k <= 6; k++ {
			rows = append(rows, wrnRow(fmt.Sprintf("%s/WRN_%d", src.prefix, k), k, src.wrnAlpha(k)))
		}
		rows = append(rows,
			indistRow{src.prefix + "/1sWRN_3", func() Finite { return wrn.NewOneShot(3) }, src.wrnAlpha(3), 1 << 15},
			wrnRow(src.prefix+"/WRN_2=SWAP", 2, src.wrnAlpha(2)),
			indistRow{src.prefix + "/swap", func() Finite { return consensus.NewSwap(nil) }, swap(src.p, src.q), 1 << 15},
			indistRow{src.prefix + "/test-and-set", func() Finite { return consensus.NewTestAndSet() }, []sim.Invocation{{Op: "tas"}}, 1 << 15},
			indistRow{src.prefix + "/consensus-cell", func() Finite { return consensus.NewCell(4) }, propose(src.p, src.q), 1 << 15},
		)
	}
	return rows
}

// reportDigest hashes every field of the report, failure lists in order.
func reportDigest(rep *IndistReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "states=%d pairs=%d\n", rep.States, rep.Pairs)
	for _, f := range rep.Failures {
		fmt.Fprintf(h, "F %s\n", f)
	}
	for _, f := range rep.Degenerate {
		fmt.Fprintf(h, "D %s\n", f)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// classDigest hashes an ObsClasses map in key order.
func classDigest(classes map[string]int) string {
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, classes[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestIndistPinnedE6Reports: the full E6 reports and the ObsClasses
// partitions of their reachable spaces, pinned by digest. The digests
// were recorded before the single sweep replaced the two-pass engine,
// so any drift in keys, their sort order or a verdict shows here.
func TestIndistPinnedE6Reports(t *testing.T) {
	pinned := map[string]struct {
		report, classes              string
		states, failures, degenerate int
	}{
		"cmd/register":         {"d6aa0eb4096d3239", "f89386e7e74a153e", 3, 0, 0},
		"cmd/WRN_3":            {"5b227cfe60a58604", "8c6f056402c6215f", 27, 0, 0},
		"cmd/WRN_4":            {"fed10c23487fbd02", "cd19ca3e57acad8d", 81, 0, 0},
		"cmd/WRN_5":            {"d26683878ad4ec29", "98397cce81ea0690", 243, 0, 0},
		"cmd/WRN_6":            {"2b25fba2e7514260", "1c38fdb2a81c30df", 729, 0, 0},
		"cmd/1sWRN_3":          {"26089895b5e842f3", "c07c13cdea4a376c", 27, 0, 612},
		"cmd/WRN_2=SWAP":       {"75ec811bac82f501", "b042ff64072bff66", 9, 32, 0},
		"cmd/swap":             {"ff6b57c60bc8b845", "3729ee428915b2c1", 3, 6, 0},
		"cmd/test-and-set":     {"b695c02e6cf057b5", "55ea8ef0a93d4409", 2, 1, 0},
		"cmd/consensus-cell":   {"b2e073bb192e3df6", "8a566b994f7c561b", 9, 2, 16},
		"bench/register":       {"d6aa0eb4096d3239", "2e866d4c44d105db", 3, 0, 0},
		"bench/WRN_3":          {"5b227cfe60a58604", "fce8c78cf4d54651", 27, 0, 0},
		"bench/WRN_4":          {"fed10c23487fbd02", "3eb414a4951abee3", 81, 0, 0},
		"bench/WRN_5":          {"d26683878ad4ec29", "b90ccb7974552081", 243, 0, 0},
		"bench/WRN_6":          {"2b25fba2e7514260", "9a399673f976616d", 729, 0, 0},
		"bench/1sWRN_3":        {"7e168669dad0d97f", "3360ca61e8119ba2", 27, 0, 612},
		"bench/WRN_2=SWAP":     {"48a76f5062ea4cc3", "21473f46b9d4c7a1", 9, 32, 0},
		"bench/swap":           {"9c418d9198311ca9", "16ec79b247caffcf", 3, 6, 0},
		"bench/test-and-set":   {"b695c02e6cf057b5", "55ea8ef0a93d4409", 2, 1, 0},
		"bench/consensus-cell": {"a37fd3158c9f503d", "71bb3da331650b33", 9, 2, 16},
	}
	rows := e6Rows()
	if len(rows) != len(pinned) {
		t.Fatalf("%d E6 rows, %d pinned", len(rows), len(pinned))
	}
	for _, r := range rows {
		want, ok := pinned[r.name]
		if !ok {
			t.Fatalf("%s: no pinned digest", r.name)
		}
		rep, err := CheckIndistinguishability(r.init(), r.alpha, r.maxStates)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		states, err := Reachable(r.init(), r.alpha, r.maxStates)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		classes, err := ObsClasses(states, r.alpha)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got := reportDigest(rep); got != want.report || rep.States != want.states ||
			len(rep.Failures) != want.failures || len(rep.Degenerate) != want.degenerate {
			t.Errorf("%s: report digest %s (states %d, %d failures, %d degenerate), pinned %s (%d, %d, %d)",
				r.name, got, rep.States, len(rep.Failures), len(rep.Degenerate),
				want.report, want.states, want.failures, want.degenerate)
		}
		if got := classDigest(classes); got != want.classes {
			t.Errorf("%s: class digest %s, pinned %s", r.name, got, want.classes)
		}
	}
}

// TestIndistMatchesNaiveOracle: the swept, table-driven engine returns
// exactly the naive checker's report (or error), and ObsClasses exactly
// the naive refinement's partition, on the E6 rows and on larger value
// domains, one-shot arities and the Common2 objects.
func TestIndistMatchesNaiveOracle(t *testing.T) {
	rows := e6Rows()
	for k := 3; k <= 5; k++ {
		k := k
		rows = append(rows, indistRow{fmt.Sprintf("WRN_%d/3 values", k), func() Finite { return wrn.New(k) }, WRNAlphabet(k, 3), 1 << 15})
	}
	enq := sim.Invocation{Op: "enq", Args: []sim.Value{"x"}}
	deq := sim.Invocation{Op: "deq"}
	rows = append(rows,
		indistRow{"1sWRN_3", func() Finite { return wrn.NewOneShot(3) }, WRNAlphabet(3, 2), 1 << 15},
		indistRow{"1sWRN_4", func() Finite { return wrn.NewOneShot(4) }, WRNAlphabet(4, 2), 1 << 15},
		indistRow{"queue/deq", func() Finite { return consensus.NewQueue("tok", "t2", 3) }, []sim.Invocation{deq}, 1 << 15},
		// enq and fad grow their objects without bound, so both engines
		// must refuse at the same limit.
		indistRow{"queue/enq+deq", func() Finite { return consensus.NewQueue("tok") }, []sim.Invocation{enq, deq}, 40},
		indistRow{"fetch&add/0", func() Finite { return consensus.NewFetchAdd(5) }, []sim.Invocation{{Op: "fad", Args: []sim.Value{0}}}, 1 << 15},
		indistRow{"fetch&add/±1", func() Finite { return consensus.NewFetchAdd(0) },
			[]sim.Invocation{{Op: "fad", Args: []sim.Value{1}}, {Op: "fad", Args: []sim.Value{-1}}}, 40},
	)
	for _, r := range rows {
		if testing.Short() && (r.name == "cmd/WRN_6" || r.name == "bench/WRN_6" || r.name == "WRN_5/3 values") {
			continue
		}
		got, gotErr := CheckIndistinguishability(r.init(), r.alpha, r.maxStates)
		want, wantErr := naiveIndist(r.init(), r.alpha, r.maxStates)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: err = %v, oracle %v", r.name, gotErr, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: report diverges from the oracle:\n got %+v\nwant %+v", r.name, got, want)
		}
		if gotErr != nil {
			continue
		}
		states, err := Reachable(r.init(), r.alpha, r.maxStates)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		classes, err := ObsClasses(states, r.alpha)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if want := naiveClasses(states, r.alpha); !reflect.DeepEqual(classes, want) {
			t.Errorf("%s: ObsClasses diverges from the oracle:\n got %v\nwant %v", r.name, classes, want)
		}
	}
}

// TestCheckIndistStateLimit: the maxStates guard fires exactly when the
// reachable space outgrows it, with the same error as Reachable and the
// naive search. WRN_3 over two values has 27 states.
func TestCheckIndistStateLimit(t *testing.T) {
	for _, limit := range []int{1, 2, 26, 27, 28} {
		_, err := CheckIndistinguishability(wrn.New(3), WRNAlphabet(3, 2), limit)
		if (err != nil) != (limit < 27) {
			t.Errorf("limit %d: err = %v", limit, err)
		}
		_, reachErr := Reachable(wrn.New(3), WRNAlphabet(3, 2), limit)
		_, naiveErr := naiveIndist(wrn.New(3), WRNAlphabet(3, 2), limit)
		if fmt.Sprint(err) != fmt.Sprint(reachErr) || fmt.Sprint(err) != fmt.Sprint(naiveErr) {
			t.Errorf("limit %d: err = %v, Reachable %v, oracle %v", limit, err, reachErr, naiveErr)
		}
	}
	_, err := CheckIndistinguishability(wrn.New(3), WRNAlphabet(3, 2), 2)
	if want := "modelcheck: state space exceeds 2 states"; fmt.Sprint(err) != want {
		t.Errorf("err = %v, want %s", err, want)
	}
}

// modCounter counts modulo 4: "inc" advances it, "zero?" reports whether
// it is at 0.
type modCounter struct{ n int }

func (c *modCounter) Apply(_ *sim.Env, inv sim.Invocation) sim.Response {
	if inv.Op == "inc" {
		c.n = (c.n + 1) % 4
		return sim.Respond(nil)
	}
	return sim.Respond(c.n == 0)
}

func (c *modCounter) StateKey() string        { return strconv.Itoa(c.n) }
func (c *modCounter) CloneObject() sim.Object { return &modCounter{n: c.n} }

// TestObsClassesClosesTheSet: a state set that is not closed under the
// alphabet is classified over its closure, so a successor outside the
// set is a state of its own, never an alias of another one. A closure
// that never ends is refused at the default limit.
func TestObsClassesClosesTheSet(t *testing.T) {
	alpha := []sim.Invocation{{Op: "inc"}, {Op: "zero?"}}
	states := map[string]Finite{"1": &modCounter{1}, "2": &modCounter{2}, "3": &modCounter{3}}
	classes, err := ObsClasses(states, alpha)
	if err != nil {
		t.Fatal(err)
	}
	closed := map[string]Finite{"0": &modCounter{0}, "1": &modCounter{1}, "2": &modCounter{2}, "3": &modCounter{3}}
	if want := naiveClasses(closed, alpha); len(want) != 4 || !reflect.DeepEqual(classes, want) {
		t.Errorf("classes = %v, want the closure's %v", classes, want)
	}
	distinct := map[int]bool{}
	for _, c := range classes {
		distinct[c] = true
	}
	if len(distinct) != 4 {
		t.Errorf("classes = %v, want 4 classes", classes)
	}
	inc := []sim.Invocation{{Op: "fad", Args: []sim.Value{1}}}
	_, err = ObsClasses(map[string]Finite{"0": consensus.NewFetchAdd(0)}, inc)
	if want := "modelcheck: state space exceeds 65536 states"; fmt.Sprint(err) != want {
		t.Errorf("unbounded closure: err = %v, want %s", err, want)
	}
}

// hangWord is a test-and-set whose losers are answered with the string
// "<hang>": an ordinary output, however it reads.
type hangWord struct{ set bool }

func (h *hangWord) Apply(_ *sim.Env, _ sim.Invocation) sim.Response {
	if h.set {
		return sim.Respond("<hang>")
	}
	h.set = true
	return sim.Respond("won")
}

func (h *hangWord) StateKey() string        { return strconv.FormatBool(h.set) }
func (h *hangWord) CloneObject() sim.Object { return &hangWord{set: h.set} }

// TestIndistHangTokenIsAnOutput: a hang has an output id of its own, so
// an object that answers the string "<hang>" is judged on that answer —
// here a test-and-set, whose race must be distinguishing — never as a
// hung operation.
func TestIndistHangTokenIsAnOutput(t *testing.T) {
	alpha := []sim.Invocation{{Op: "tas"}}
	rep, err := CheckIndistinguishability(&hangWord{}, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() || len(rep.Degenerate) != 0 {
		t.Errorf("report %+v: want the tas/tas race distinguishing and nothing degenerate", rep)
	}
	want, err := naiveIndist(&hangWord{}, alpha, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, want) {
		t.Errorf("report %+v, oracle %+v", rep, want)
	}
}
