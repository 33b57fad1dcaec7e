package detobj_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"detobj"
)

// ExampleNewAlg2 runs the paper's Algorithm 2: three processes solve
// 2-set consensus with a single one-shot WRN_3 object.
func ExampleNewAlg2() {
	objects := map[string]detobj.Object{}
	programs := detobj.NewAlg2(objects, "W", []detobj.Value{"red", "green", "blue"})
	res, err := detobj.Run(detobj.Config{
		Objects:   objects,
		Programs:  programs,
		Scheduler: detobj.NewFixedSchedule(0, 1, 2),
	})
	if err != nil {
		panic(err)
	}
	// Under the sequential schedule 0,1,2: P0 and P1 read empty successor
	// cells and keep their own proposals; P2 reads cell 0 and adopts red.
	fmt.Println(res.Outputs)
	// Output: [red green red]
}

// ExampleImplements evaluates Theorem 41 on the paper's §7.1 example.
func ExampleImplements() {
	fmt.Println(detobj.Implements(3, 2, 12, 8))
	fmt.Println(detobj.Implements(3, 2, 12, 7))
	// Output:
	// true
	// false
}

// ExampleCompare shows the 1sWRN hierarchy ordering of Corollary 42.
func ExampleCompare() {
	a := detobj.WRNEquivalent(3)
	b := detobj.WRNEquivalent(5)
	fmt.Println(detobj.Compare(a, b))
	fmt.Println(detobj.Compare(b, a))
	// Output:
	// stronger
	// weaker
}

func TestFacadeWRNRoundTrip(t *testing.T) {
	w := detobj.NewWRN(3)
	if w.K() != 3 {
		t.Fatalf("K = %d", w.K())
	}
	one := detobj.NewOneShotWRN(4)
	if one.K() != 4 {
		t.Fatalf("one-shot K = %d", one.K())
	}
	if !detobj.IsBottom(detobj.Bottom) {
		t.Fatal("Bottom lost its identity through the facade")
	}
}

func TestFacadeConsensusNumbers(t *testing.T) {
	if detobj.WRNConsensusNumber(2) != 2 || detobj.WRNConsensusNumber(7) != 1 {
		t.Fatal("consensus numbers wrong through the facade")
	}
	if detobj.MinAgreement(12, 3, 2) != 8 {
		t.Fatal("MinAgreement wrong through the facade")
	}
	if detobj.Alg6Guarantee(12, 3) != 8 {
		t.Fatal("Alg6Guarantee wrong through the facade")
	}
}

func TestFacadeAlg6EndToEnd(t *testing.T) {
	objects := map[string]detobj.Object{}
	a := detobj.NewAlg6(objects, "G", 6, 3)
	inputs := map[int]detobj.Value{}
	progs := make([]detobj.Program, 6)
	for i := 0; i < 6; i++ {
		v := i
		inputs[i] = v
		progs[i] = a.Program(i, v)
	}
	res, err := detobj.Run(detobj.Config{
		Objects:   objects,
		Programs:  progs,
		Scheduler: detobj.NewRandomScheduler(1),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	o := detobj.OutcomeFromResult(res, inputs)
	task := detobj.SetConsensusTask{K: detobj.Alg6Guarantee(6, 3)}
	if err := task.Check(o); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLinearizability(t *testing.T) {
	objects := map[string]detobj.Object{}
	impl := detobj.NewWRNImpl(objects, "LW", 3)
	progs := make([]detobj.Program, 3)
	for i := 0; i < 3; i++ {
		i := i
		progs[i] = func(ctx *detobj.Ctx) detobj.Value {
			return impl.TracedWRN(ctx, i, 10+i)
		}
	}
	res, err := detobj.Run(detobj.Config{
		Objects:   objects,
		Programs:  progs,
		Scheduler: detobj.NewRandomScheduler(5),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ops := detobj.LinOps(res.Trace, impl.Name())
	if !detobj.LinCheck(detobj.WRNSpec(3), ops) {
		t.Fatal("Algorithm 5 history not linearizable through the facade")
	}
}

func TestFacadeExplore(t *testing.T) {
	n, err := detobj.Explore(func() detobj.Config {
		objects := map[string]detobj.Object{}
		progs := detobj.NewAlg2(objects, "W", []detobj.Value{1, 2, 3})
		return detobj.Config{Objects: objects, Programs: progs}
	}, 0, func(e detobj.Execution) error { return nil })
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n != 6 {
		t.Fatalf("executions = %d, want 3! = 6", n)
	}
}

func TestFacadeFamily(t *testing.T) {
	f := detobj.Family{N: 3}
	w := f.Separation(2)
	if !w.Separated() {
		t.Fatalf("family separation failed: %+v", w)
	}
}

func TestFacadePowerClasses(t *testing.T) {
	classes := detobj.PowerClasses(8)
	if len(classes) != 8*7/2 {
		t.Fatalf("classes = %d, want %d", len(classes), 8*7/2)
	}
}

func TestFacadeIteratedSnapshot(t *testing.T) {
	objects := map[string]detobj.Object{}
	pr := detobj.NewIteratedSnapshot(objects, "IIS", 2, 2)
	if pr.Rounds() != 2 {
		t.Fatalf("Rounds = %d", pr.Rounds())
	}
	res, err := detobj.Run(detobj.Config{
		Objects:  objects,
		Programs: []detobj.Program{pr.Program(0, "x"), pr.Program(1, "y")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone() {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestFacadeSubstrates(t *testing.T) {
	objects := map[string]detobj.Object{}
	ren := detobj.NewRenaming(objects, "REN", 16)
	snap := detobj.NewSnapshot(objects, "SNAP", 3, nil)
	sa := detobj.NewSafeAgreement(objects, "SA", 2)
	objects["SSE"] = detobj.NewStrongElection(3)

	res, err := detobj.Run(detobj.Config{
		Objects: objects,
		Programs: []detobj.Program{func(ctx *detobj.Ctx) detobj.Value {
			name := ren.GetName(ctx, 7)
			snap.Update(ctx, 0, "x")
			view := snap.Scan(ctx)
			sa.Propose(ctx, 0, "agreed")
			v := sa.ResolveBlocking(ctx)
			return []detobj.Value{name, view[0], v}
		}},
		MaxSteps: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[0].([]detobj.Value)
	if out[0] != 0 || out[1] != "x" || out[2] != "agreed" {
		t.Fatalf("outputs = %v", out)
	}
}

func TestFacadeBGSimulation(t *testing.T) {
	objects := map[string]detobj.Object{}
	s := detobj.NewBGSimulation(objects, "BG", 2, []detobj.Value{"a", "b"}, detobj.BGProtocol{
		Rounds: 1,
		Write:  func(_ int, input detobj.Value, _ [][]detobj.Value) detobj.Value { return input },
		Decide: func(p int, _ detobj.Value, scans [][]detobj.Value) detobj.Value { return scans[0][p] },
	})
	res, err := detobj.Run(detobj.Config{
		Objects:  objects,
		Programs: s.Programs(),
		MaxSteps: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone() {
		t.Fatalf("status = %v", res.Status)
	}
}

func TestFacadeAlg3AndFamilies(t *testing.T) {
	family := detobj.CoveringFamily(3)
	objects := map[string]detobj.Object{}
	a := detobj.NewAlg3(objects, "A", 3, 16, family)
	inputs := map[int]detobj.Value{0: "x", 1: "y", 2: "z"}
	res, err := detobj.Run(detobj.Config{
		Objects:   objects,
		Programs:  []detobj.Program{a.Program(3, "x"), a.Program(8, "y"), a.Program(12, "z")},
		Scheduler: detobj.NewRandomScheduler(5),
		MaxSteps:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := detobj.OutcomeFromResult(res, inputs)
	if err := (detobj.SetConsensusTask{K: 2}).Check(o); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeObjects(t *testing.T) {
	sc := detobj.NewSetConsensusObject(3, 2)
	if sc.N() != 3 || sc.K() != 2 {
		t.Fatal("set-consensus object accessors")
	}
	if detobj.NewRoundRobin() == nil {
		t.Fatal("round robin nil")
	}
}

// TestFacadeSeededSource: the facade's source draws what math/rand's
// source seeded alike draws.
func TestFacadeSeededSource(t *testing.T) {
	got, want := rand.New(detobj.NewSeededSource(11)), rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		if g, w := got.Intn(97), want.Intn(97); g != w {
			t.Fatalf("draw %d = %d, want %d", i, g, w)
		}
	}
}

// TestFacadeBoundedExhausted: through the facade, a one-shot WRN index
// reused past its single use degrades to the typed ErrExhausted instead
// of hanging the caller, and both of the facade's checks recognise it.
func TestFacadeBoundedExhausted(t *testing.T) {
	objects := map[string]detobj.Object{"W": detobj.NewBounded(detobj.NewOneShotWRN(2), 0)}
	res, err := detobj.Run(detobj.Config{
		Objects: objects,
		Programs: []detobj.Program{func(ctx *detobj.Ctx) detobj.Value {
			ctx.Invoke("W", "WRN", 0, "first")
			return ctx.Invoke("W", "WRN", 0, "second")
		}},
		VerifyReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A hung caller has no output, so this also fails on a hang.
	out := res.Outputs[0]
	if !detobj.Exhausted(out) {
		t.Fatalf("output %v, want ErrExhausted", out)
	}
	if e, ok := out.(error); !ok || !errors.Is(e, detobj.ErrExhausted) {
		t.Fatalf("output %v does not satisfy errors.Is(·, detobj.ErrExhausted)", out)
	}
}

// TestFacadeBoundedStepBudget: through the facade, a step budget caps
// each process on its own: every process gets its budget of WRN calls
// and its next call degrades to ErrExhausted.
func TestFacadeBoundedStepBudget(t *testing.T) {
	const k, budget = 3, 2
	progs := make([]detobj.Program, k)
	for i := range progs {
		i := i
		progs[i] = func(ctx *detobj.Ctx) detobj.Value {
			outs := make([]detobj.Value, 0, budget+1)
			for j := 0; j <= budget; j++ {
				outs = append(outs, ctx.Invoke("W", "WRN", i, j))
			}
			return outs
		}
	}
	res, err := detobj.Run(detobj.Config{
		Objects:      map[string]detobj.Object{"W": detobj.NewBounded(detobj.NewWRN(k), budget)},
		Programs:     progs,
		Scheduler:    detobj.NewRandomScheduler(1),
		VerifyReplay: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		for j, v := range out.([]detobj.Value) {
			if detobj.Exhausted(v) != (j == budget) {
				t.Errorf("P%d call %d returned %v with budget %d", i, j, v, budget)
			}
		}
	}
}
