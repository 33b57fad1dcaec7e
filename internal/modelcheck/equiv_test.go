package modelcheck

import (
	"strings"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

func registerAlphabet(values ...string) []sim.Invocation {
	ops := []sim.Invocation{{Op: "read"}}
	for _, v := range values {
		ops = append(ops, sim.Invocation{Op: "write", Args: []sim.Value{v}})
	}
	return ops
}

func TestReachableRegister(t *testing.T) {
	states, err := Reachable(registers.New("init"), registerAlphabet("a", "b"), 0)
	if err != nil {
		t.Fatalf("Reachable: %v", err)
	}
	if len(states) != 3 { // init, a, b
		t.Errorf("states = %d, want 3", len(states))
	}
}

func TestReachableLimit(t *testing.T) {
	if _, err := Reachable(registers.New("init"), registerAlphabet("a", "b", "c"), 2); err == nil {
		t.Error("state limit not enforced")
	}
}

func TestObsClassesRegister(t *testing.T) {
	alpha := registerAlphabet("a", "b")
	states, err := Reachable(registers.New("init"), alpha, 0)
	if err != nil {
		t.Fatalf("Reachable: %v", err)
	}
	classes, err := ObsClasses(states, alpha)
	if err != nil {
		t.Fatalf("ObsClasses: %v", err)
	}
	// All three states are distinguishable by a read.
	seen := map[int]bool{}
	for _, c := range classes {
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Errorf("classes = %d, want 3", len(seen))
	}
}

// TestIndistRegistersPass (E6 control): registers meet every obligation —
// each write/read pair commutes or overwrites for one of the two issuers —
// which is why registers cannot solve 2-process consensus.
func TestIndistRegistersPass(t *testing.T) {
	rep, err := CheckIndistinguishability(registers.New("init"), registerAlphabet("a", "b"), 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.Passed() {
		t.Errorf("registers failed %d obligations, e.g. %v", len(rep.Failures), rep.Failures[0])
	}
	if rep.Pairs == 0 || rep.States == 0 {
		t.Errorf("report empty: %+v", rep)
	}
}

// TestIndistWRNPass (E6, Lemma 38): WRN_k for k ≥ 3 meets every
// obligation over every reachable state, mechanizing the paper's Case 1
// (same index: overwriting) and Case 2 (different index: at least one
// side's read cell is untouched).
func TestIndistWRNPass(t *testing.T) {
	cases := []struct{ k, domain int }{
		{3, 2}, {3, 3}, {4, 2}, {5, 2},
	}
	for _, c := range cases {
		rep, err := CheckIndistinguishability(wrn.New(c.k), WRNAlphabet(c.k, c.domain), 1<<14)
		if err != nil {
			t.Fatalf("k=%d domain=%d: %v", c.k, c.domain, err)
		}
		if !rep.Passed() {
			t.Errorf("k=%d domain=%d: %d failures, e.g. %v", c.k, c.domain, len(rep.Failures), rep.Failures[0])
		}
	}
}

// TestIndistWRN2Fails (E6): WRN_2 — i.e. SWAP — violates the obligations:
// each process's single step both overwrites the other's read cell and
// reads the other's written cell, so both sides distinguish. This is the
// structural reason WRN_2 has consensus number 2 while WRN_{k≥3} has 1.
func TestIndistWRN2Fails(t *testing.T) {
	rep, err := CheckIndistinguishability(wrn.New(2), WRNAlphabet(2, 2), 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Passed() {
		t.Fatal("WRN_2 passed the indistinguishability check; it must fail (consensus number 2)")
	}
	// The failing pair must involve the two distinct indices.
	found := false
	for _, f := range rep.Failures {
		if f.A.Arg(0) != f.B.Arg(0) {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no cross-index failure among %v", rep.Failures)
	}
}

// TestIndistOneShotWRNPass: the one-shot variant exposes no distinguishing
// pair for k ≥ 3 (consistent with consensus number 1), but repeated-index
// races are degenerate — the issuer hangs in one order — so the textbook
// argument is not Clean for it, unlike multi-shot WRN.
func TestIndistOneShotWRNPass(t *testing.T) {
	rep, err := CheckIndistinguishability(wrn.NewOneShot(3), WRNAlphabet(3, 2), 1<<14)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.Passed() {
		t.Errorf("1sWRN_3: %d distinguishing pairs, e.g. %v", len(rep.Failures), rep.Failures[0])
	}
	if len(rep.Degenerate) == 0 {
		t.Error("expected degenerate repeated-index pairs on the one-shot object")
	}
	if rep.Clean() {
		t.Error("Clean() must be false in the presence of degenerate pairs")
	}
}

// TestIndistMultiShotClean: multi-shot WRN_3 and registers are Clean — no
// hangs anywhere, the verbatim Lemma 38 analysis.
func TestIndistMultiShotClean(t *testing.T) {
	rep, err := CheckIndistinguishability(wrn.New(3), WRNAlphabet(3, 2), 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if !rep.Clean() {
		t.Errorf("WRN_3 not clean: %d failures, %d degenerate", len(rep.Failures), len(rep.Degenerate))
	}
}

// TestIndistSwapFails: a SWAP object fails (consensus number 2).
func TestIndistSwapFails(t *testing.T) {
	alpha := []sim.Invocation{
		{Op: "swap", Args: []sim.Value{"p"}},
		{Op: "swap", Args: []sim.Value{"q"}},
	}
	rep, err := CheckIndistinguishability(consensus.NewSwap(nil), alpha, 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Passed() {
		t.Error("SWAP passed; it must fail")
	}
}

// TestIndistTASFails: test-and-set fails (consensus number 2).
func TestIndistTASFails(t *testing.T) {
	alpha := []sim.Invocation{{Op: "tas"}}
	rep, err := CheckIndistinguishability(consensus.NewTestAndSet(), alpha, 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Passed() {
		t.Error("test-and-set passed; it must fail")
	}
}

// TestIndistConsensusCellFails: a consensus cell fails, as it must — it IS
// consensus.
func TestIndistConsensusCellFails(t *testing.T) {
	alpha := []sim.Invocation{
		{Op: "propose", Args: []sim.Value{"p"}},
		{Op: "propose", Args: []sim.Value{"q"}},
	}
	rep, err := CheckIndistinguishability(consensus.NewCell(4), alpha, 0)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if rep.Passed() {
		t.Error("consensus cell passed; it must fail")
	}
}

func TestPairFailureString(t *testing.T) {
	f := PairFailure{State: "[a b]", A: sim.Invocation{Op: "x"}, B: sim.Invocation{Op: "y"}}
	if !strings.Contains(f.String(), "x()") || !strings.Contains(f.String(), "[a b]") {
		t.Errorf("String = %q", f.String())
	}
}

func TestWRNAlphabet(t *testing.T) {
	alpha := WRNAlphabet(3, 2)
	if len(alpha) != 6 {
		t.Errorf("alphabet size = %d, want 6", len(alpha))
	}
}

// TestIndistCommon2Fail: the Common2 objects — FIFO queue and fetch&add —
// must expose distinguishing races, since both have consensus number 2.
// Their state spaces are unbounded (enq and fad grow them), so instead of
// full reachability the test judges the decisive pairs directly: a
// distinguishing verdict depends only on the racers' outputs, never on
// the equivalence classes.
func TestIndistCommon2Fail(t *testing.T) {
	// State-identity as the (finest possible) equivalence: conservative
	// for indistinguishability, exact for output-based distinguishing.
	keyCls := func() func(Finite) int {
		seen := map[string]int{}
		return func(s Finite) int {
			k := s.StateKey()
			if id, ok := seen[k]; ok {
				return id
			}
			id := len(seen)
			seen[k] = id
			return id
		}
	}

	// Queue seeded with one token: two racing dequeuers each see
	// different results depending on order — both survive, both observe.
	deq := sim.Invocation{Op: "deq"}
	if got := classifyStep(consensus.NewQueue("tok", "t2"), deq, deq, keyCls()); got != pairDistinguish {
		t.Errorf("queue deq/deq race = %v, want distinguishing (consensus number 2)", got)
	}

	// fetch&add: two racing adders read different previous values.
	fad := sim.Invocation{Op: "fad", Args: []sim.Value{1}}
	if got := classifyStep(consensus.NewFetchAdd(0), fad, fad, keyCls()); got != pairDistinguish {
		t.Errorf("fetch&add race = %v, want distinguishing (consensus number 2)", got)
	}
}
