package detobj_test

// Sequential-vs-parallel sub-benchmarks for the exhaustive engines. Every
// benchmark comes as a seq/par pair with identical workloads; cmd/benchjson
// pairs them by name and reports par's speedup over seq in BENCH_N.json.
// The parallel engines are byte-identical to the sequential ones, so the
// pairs also double as cross-checks: each iteration asserts the same
// correctness condition on both sides.
//
// Two benchmarks additionally carry a /red sub-benchmark running the
// symmetry-reduced engine on the same workload; benchjson pairs those with
// /seq into a Reductions section that also reports the allocation ratio
// (the reduced engine visits one representative per orbit and replays
// runs through an arena, so both time/op and allocs/op collapse).
//
// The parallel speedup materializes at GOMAXPROCS >= 4; at GOMAXPROCS = 1
// the parallel engines delegate to (or tie with) the sequential ones.

import (
	"fmt"
	"runtime"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/modelcheck"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/tasks"
	"detobj/internal/wrn"
)

// alg2Factory is the E1 workload: k processes solving (k−1)-set consensus
// from one 1sWRN_k, explored exhaustively.
func alg2Factory(k int) modelcheck.Factory {
	return func() sim.Config {
		vs := make([]sim.Value, k)
		for i := range vs {
			vs[i] = i * 10
		}
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: setconsensus.NewAlg2(objects, "W", vs)}
	}
}

// relaxedE4Factory is the E4 workload: procs contenders racing on a
// relaxed WRN_k wrapper, one of them alone on index 1.
func relaxedE4Factory(k, procs int) modelcheck.Factory {
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

// BenchmarkParExploreE1: exhaustive E1 check, sequential engine vs the
// worker pool at GOMAXPROCS.
func BenchmarkParExploreE1(b *testing.B) {
	const k = 6
	f := alg2Factory(k)
	task := tasks.SetConsensus{K: k - 1}
	inputs := map[int]sim.Value{}
	for i := 0; i < k; i++ {
		inputs[i] = i * 10
	}
	check := func(e modelcheck.Execution) error {
		return task.Check(tasks.OutcomeFromResult(e.Result, inputs))
	}
	run := func(b *testing.B, explore func() (int, error)) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			count, err := explore()
			if err != nil {
				b.Fatal(err)
			}
			if count == 0 {
				b.Fatal("no executions")
			}
		}
	}
	b.Run(fmt.Sprintf("k=%d/seq", k), func(b *testing.B) {
		run(b, func() (int, error) { return modelcheck.Explore(f, 0, check) })
	})
	b.Run(fmt.Sprintf("k=%d/par", k), func(b *testing.B) {
		run(b, func() (int, error) {
			return modelcheck.ExploreParallel(f, 0, runtime.GOMAXPROCS(0), check)
		})
	})
}

// BenchmarkParExploreE4: exhaustive relaxed-WRN flag-principle check,
// sequential vs parallel.
func BenchmarkParExploreE4(b *testing.B) {
	f := relaxedE4Factory(3, 4)
	check := func(e modelcheck.Execution) error {
		for i, st := range e.Result.Status {
			if st != sim.StatusDone {
				return fmt.Errorf("process %d ended %v", i, st)
			}
		}
		return nil
	}
	run := func(b *testing.B, explore func() (int, error)) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := explore(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("k=3procs=4/seq", func(b *testing.B) {
		run(b, func() (int, error) { return modelcheck.Explore(f, 0, check) })
	})
	b.Run("k=3procs=4/par", func(b *testing.B) {
		run(b, func() (int, error) {
			return modelcheck.ExploreParallel(f, 0, runtime.GOMAXPROCS(0), check)
		})
	})
	// Reduced engine: the three followers are interchangeable, so one
	// representative stands for up to 3! = 6 executions.
	sym := modelcheck.SymmetricClasses(4, []int{1, 2, 3})
	b.Run("k=3procs=4/red", func(b *testing.B) {
		run(b, func() (int, error) {
			rep, err := modelcheck.ExploreReduced(f, modelcheck.Reduced{Sym: sym}, 0,
				func(e modelcheck.Execution, orbit int) error { return check(e) })
			if err != nil {
				return 0, err
			}
			return rep.Executions, nil
		})
	})
}

// BenchmarkParValencyE11: the E11 valency analysis of the SWAP-based
// 2-consensus protocol, sequential vs parallel.
func BenchmarkParValencyE11(b *testing.B) {
	f := func() sim.Config {
		objects := map[string]sim.Object{}
		progs := consensus.TwoConsFromSwap(objects, "C", 10, 20)
		return sim.Config{Objects: objects, Programs: progs}
	}
	run := func(b *testing.B, analyze func() (*modelcheck.ValencyReport, error)) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			rep, err := analyze()
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Agreement {
				b.Fatal("disagreement")
			}
		}
	}
	b.Run("swap/seq", func(b *testing.B) {
		run(b, func() (*modelcheck.ValencyReport, error) { return modelcheck.AnalyzeValency(f, 0) })
	})
	b.Run("swap/par", func(b *testing.B) {
		run(b, func() (*modelcheck.ValencyReport, error) {
			return modelcheck.AnalyzeValencyParallel(f, 0, runtime.GOMAXPROCS(0))
		})
	})
	// Reduced engine: the two proposers are symmetric once their input
	// values are renamed along with the processes.
	sym := modelcheck.SymmetricClasses(2, []int{0, 1})
	sym.Rename = modelcheck.RenameByInputs([]sim.Value{10, 20})
	b.Run("swap/red", func(b *testing.B) {
		run(b, func() (*modelcheck.ValencyReport, error) {
			rep, _, err := modelcheck.AnalyzeValencyReduced(f, modelcheck.Reduced{Sym: sym}, 0)
			return rep, err
		})
	})
}
