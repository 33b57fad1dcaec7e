package modelcheck

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// renderExec pins down everything Explore exposes about one execution,
// the rendered trace included, so two visit sequences can be compared
// byte for byte.
func renderExec(e Execution) string {
	r := e.Result
	return fmt.Sprintf("sched=%v choices=%v out=%v status=%v enabled=%v steps=%d restarts=%v\n%s",
		e.Schedule, e.Choices, r.Outputs, r.Status, r.Enabled, r.Steps, r.Restarts, r.Trace)
}

func collectSeq(t *testing.T, f Factory) []string {
	t.Helper()
	var seq []string
	n, err := Explore(f, 0, func(e Execution) error {
		seq = append(seq, renderExec(e))
		return nil
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if n != len(seq) {
		t.Fatalf("Explore count %d != visits %d", n, len(seq))
	}
	return seq
}

// relaxedFactory is an E4-style configuration: procs processes racing on
// a relaxed WRN_k wrapper, one of them alone on index 1.
func relaxedFactory(k, procs int) Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		rlx, _ := wrn.NewRelaxed(objects, "W", k)
		progs := make([]sim.Program, procs)
		for p := 0; p < procs; p++ {
			p := p
			progs[p] = func(ctx *sim.Ctx) sim.Value {
				if p == 0 {
					return rlx.RlxWRN(ctx, 1, "solo")
				}
				return rlx.RlxWRN(ctx, 0, fmt.Sprintf("p%d", p))
			}
		}
		return sim.Config{Objects: objects, Programs: progs}
	}
}

// TestExploreParallelMatchesExplore is the tentpole cross-check: for
// deterministic, nondeterministic and E4-style configurations, every
// worker count must reproduce Explore's visit sequence exactly — same
// executions, same order, same count.
func TestExploreParallelMatchesExplore(t *testing.T) {
	factories := []struct {
		name string
		f    Factory
	}{
		{"counter2x1", counterFactory(2, 1)},
		{"counter3x2", counterFactory(3, 2)},
		{"coin1x2", coinFactory(1, 2)},
		{"coin2x1", coinFactory(2, 1)},
		{"coin2x2", coinFactory(2, 2)},
		{"relaxedWRN", relaxedFactory(3, 3)},
	}
	for _, fc := range factories {
		want := collectSeq(t, fc.f)
		for _, workers := range []int{1, 2, 4, 8} {
			var got []string
			n, err := ExploreParallel(fc.f, 0, workers, func(e Execution) error {
				got = append(got, renderExec(e))
				return nil
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fc.name, workers, err)
			}
			if n != len(want) {
				t.Errorf("%s workers=%d: count %d, want %d", fc.name, workers, n, len(want))
			}
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("%s workers=%d: visit %d diverges:\n got %q\nwant %q",
							fc.name, workers, i, at(got, i), want[i])
					}
				}
				t.Fatalf("%s workers=%d: %d extra visits", fc.name, workers, len(got)-len(want))
			}
		}
	}
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// TestExploreParallelLimit: the shared budget must reproduce Explore's
// (count, error) pair byte for byte.
func TestExploreParallelLimit(t *testing.T) {
	f := counterFactory(3, 2)
	seqN, seqErr := Explore(f, 5, func(Execution) error { return nil })
	for _, workers := range []int{1, 2, 4, 8} {
		n, err := ExploreParallel(f, 5, workers, func(Execution) error { return nil })
		if !errors.Is(err, ErrLimit) {
			t.Fatalf("workers=%d: err = %v, want ErrLimit", workers, err)
		}
		if err.Error() != seqErr.Error() || n != seqN {
			t.Errorf("workers=%d: (%d, %q), want (%d, %q)", workers, n, err, seqN, seqErr)
		}
	}
}

// TestExploreParallelVisitError: a visit error must stop the merge at the
// same canonical position, having visited exactly the sequential prefix.
func TestExploreParallelVisitError(t *testing.T) {
	f := counterFactory(3, 2)
	boom := errors.New("boom")
	abort := func(visits *[]string, stopAt int) func(e Execution) error {
		return func(e Execution) error {
			*visits = append(*visits, renderExec(e))
			if len(*visits) == stopAt {
				return boom
			}
			return nil
		}
	}
	const stopAt = 37
	var want []string
	if _, err := Explore(f, 0, abort(&want, stopAt)); !errors.Is(err, boom) {
		t.Fatalf("Explore err = %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		var got []string
		if _, err := ExploreParallel(f, 0, workers, abort(&got, stopAt)); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: visited prefix diverges from sequential", workers)
		}
	}
}

// mine is a deterministic object that panics on its fuse-th application —
// a crashing adversary for the worker pool.
type mine struct {
	applied, fuse int
}

func (m *mine) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	m.applied++
	if m.applied == m.fuse {
		panic(fmt.Sprintf("mine detonated at application %d", m.applied))
	}
	return sim.Respond(m.applied)
}

func mineFactory(procs, steps, fuse int) Factory {
	return func() sim.Config {
		programs := make([]sim.Program, procs)
		for i := range programs {
			programs[i] = func(ctx *sim.Ctx) sim.Value {
				last := sim.Value(nil)
				for s := 0; s < steps; s++ {
					last = ctx.Invoke("M", "hit")
				}
				return last
			}
		}
		return sim.Config{
			Objects:  map[string]sim.Object{"M": &mine{fuse: fuse}},
			Programs: programs,
		}
	}
}

// TestExploreParallelCrashingAdversary hammers the worker pool with an
// object that panics mid-exploration: every worker count must surface
// the depth-first-earliest run error, identical to the sequential one.
// Run under -race this also exercises pool teardown while workers are
// still streaming.
func TestExploreParallelCrashingAdversary(t *testing.T) {
	f := mineFactory(3, 2, 4)
	_, seqErr := Explore(f, 0, func(Execution) error { return nil })
	if seqErr == nil {
		t.Fatal("sequential exploration did not hit the mine")
	}
	var ope *sim.ObjectPanicError
	if !errors.As(seqErr, &ope) {
		t.Fatalf("sequential err = %T %v, want ObjectPanicError", seqErr, seqErr)
	}
	for iter := 0; iter < 10; iter++ {
		for _, workers := range []int{2, 4, 8} {
			_, err := ExploreParallel(f, 0, workers, func(Execution) error { return nil })
			if err == nil || err.Error() != seqErr.Error() {
				t.Fatalf("iter=%d workers=%d: err = %v, want %v", iter, workers, err, seqErr)
			}
		}
	}
}

func swapConsensusFactory() Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromSwap(objects, "C", 10, 20)
		return sim.Config{Objects: objects, Programs: progs}
	}
}

// TestValencyParallelMatches: the merged valency report must equal the
// sequential one field for field, including the depth-first-earliest
// disagreement schedule of a broken protocol.
func TestValencyParallelMatches(t *testing.T) {
	factories := []struct {
		name string
		f    Factory
	}{
		{"swapConsensus", swapConsensusFactory()},
		{"counter3x2", counterFactory(3, 2)}, // disagreeing "protocol": outputs differ per schedule
		{"relaxedWRN", relaxedFactory(3, 3)},
	}
	for _, fc := range factories {
		want, seqErr := AnalyzeValency(fc.f, 0)
		if seqErr != nil {
			t.Fatalf("%s: AnalyzeValency: %v", fc.name, seqErr)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := AnalyzeValencyParallel(fc.f, 0, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", fc.name, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s workers=%d:\n got %+v\nwant %+v", fc.name, workers, got, want)
			}
		}
	}
}

// TestValencyParallelLimit: the shared execution budget reproduces the
// sequential ErrLimit rendering.
func TestValencyParallelLimit(t *testing.T) {
	f := counterFactory(3, 2)
	_, seqErr := AnalyzeValency(f, 5)
	if !errors.Is(seqErr, ErrLimit) {
		t.Fatalf("sequential err = %v", seqErr)
	}
	for _, workers := range []int{2, 4, 8} {
		_, err := AnalyzeValencyParallel(f, 5, workers)
		if !errors.Is(err, ErrLimit) || err.Error() != seqErr.Error() {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, seqErr)
		}
	}
}

// TestValencyParallelRejectsNondeterminism: the parallel engine wraps a
// choice demand exactly like the sequential one.
func TestValencyParallelRejectsNondeterminism(t *testing.T) {
	_, seqErr := AnalyzeValency(coinFactory(1, 1), 0)
	if seqErr == nil {
		t.Fatal("sequential engine accepted a nondeterministic object")
	}
	for _, workers := range []int{2, 4} {
		_, err := AnalyzeValencyParallel(coinFactory(1, 1), 0, workers)
		if err == nil || err.Error() != seqErr.Error() {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, seqErr)
		}
	}
}
