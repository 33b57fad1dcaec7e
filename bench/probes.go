package main

// probes.go holds the traced run's isolated rungs of the ROADMAP's
// measurement ladder: L0, the simulator's per-step handoff with a null
// object, and L1, Apply on each zoo object alone. They take the same
// input on every workload, so they separate a change in a layer from a
// change in what the workload asks of it.

import (
	"fmt"
	"runtime"
	"time"

	"detobj/internal/consensus"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// probeRounds is how many times each probe is repeated; it reports the
// median.
const probeRounds = 15

// handoffProbe is rung L0: one process invoking a null object 4096 times
// with trace recording off, so every step is the simulator's handoff and
// nothing else. It returns ns and heap allocations per step.
func handoffProbe() (nsPerStep, allocsPerStep float64, err error) {
	const steps = 4096
	null := sim.ObjectFunc(func(*sim.Env, sim.Invocation) sim.Response { return sim.Respond(nil) })
	prog := func(ctx *sim.Ctx) sim.Value {
		for i := 0; i < steps; i++ {
			ctx.Invoke("null", "op")
		}
		return nil
	}
	var ns, allocs []float64
	for r := 0; r < probeRounds; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		res, err := sim.Run(sim.Config{
			Objects:      map[string]sim.Object{"null": null},
			Programs:     []sim.Program{prog},
			DisableTrace: true,
		})
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, err
		}
		if res.Steps != steps {
			return 0, 0, fmt.Errorf("handoff probe took %d steps, want %d", res.Steps, steps)
		}
		ns = append(ns, float64(d.Nanoseconds())/steps)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/steps)
	}
	return median(ns), median(allocs), nil
}

// applyProbes are rung L1: each zoo object with the operations one use of
// it takes (a bounded object's whole budget, a multi-use object's
// alphabet).
var applyProbes = []struct {
	mk  func() sim.Object
	ops []sim.Invocation
}{
	{func() sim.Object { return registers.New(nil) },
		[]sim.Invocation{{Op: "write", Args: []sim.Value{"p"}}, {Op: "read"}, {Op: "write", Args: []sim.Value{"q"}}, {Op: "read"}}},
	{func() sim.Object { return wrn.New(3) }, probeWRNOps(3)},
	{func() sim.Object { return wrn.NewOneShot(3) }, probeWRNOps(3)[:3]},
	{func() sim.Object { return consensus.NewSwap(nil) },
		[]sim.Invocation{{Op: "swap", Args: []sim.Value{"p"}}, {Op: "swap", Args: []sim.Value{"q"}}}},
	{func() sim.Object { return consensus.NewTestAndSet() }, []sim.Invocation{{Op: "tas"}, {Op: "tas"}}},
	{func() sim.Object { return consensus.NewCell(4) },
		[]sim.Invocation{{Op: "propose", Args: []sim.Value{"p"}}, {Op: "propose", Args: []sim.Value{"q"}}}},
	{func() sim.Object { return recoverable.NewRegister(nil) },
		[]sim.Invocation{{Op: "write", Args: []sim.Value{"p"}}, {Op: "persist"}, {Op: "read"}}},
	{func() sim.Object { return recoverable.NewWRNCore(2) },
		[]sim.Invocation{{Op: "apply", Args: []sim.Value{0, 0, "p"}}, {Op: "apply", Args: []sim.Value{1, 1, "q"}}, {Op: "applied", Args: []sim.Value{1}}}},
}

// probeWRNOps writes each index of a WRN_k once, then each again.
func probeWRNOps(k int) []sim.Invocation {
	var ops []sim.Invocation
	for _, v := range []string{"p", "q"} {
		for i := 0; i < k; i++ {
			ops = append(ops, sim.Invocation{Op: "WRN", Args: []sim.Value{i, v}})
		}
	}
	return ops
}

// applyProbe times the operations of one probe on 512 fresh objects built
// beforehand, and returns the median ns per Apply over the rounds.
func applyProbe(mk func() sim.Object, ops []sim.Invocation) float64 {
	const objects = 512
	env := &sim.Env{}
	var ns []float64
	for r := 0; r < probeRounds; r++ {
		objs := make([]sim.Object, objects)
		for i := range objs {
			objs[i] = mk()
		}
		t0 := time.Now()
		for _, o := range objs {
			for _, inv := range ops {
				o.Apply(env, inv)
			}
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(objects*len(ops)))
	}
	return median(ns)
}

// probeMetrics runs every probe and returns its metrics.
func probeMetrics() ([]metric, error) {
	ns, allocs, err := handoffProbe()
	if err != nil {
		return nil, err
	}
	out := []metric{
		{"sim.handoff_ns_per_step", ns, "ns"},
		{"sim.handoff_allocs_per_step", allocs, "count"},
	}
	for _, p := range applyProbes {
		out = append(out, metric{typeName(p.mk()) + ".apply_probe_ns", applyProbe(p.mk, p.ops), "ns"})
	}
	return out, nil
}
