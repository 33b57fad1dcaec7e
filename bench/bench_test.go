package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/election"
	"detobj/internal/modelcheck"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/snapshot"
	"detobj/internal/wrn"
)

// tiny runs every workload's code paths in a fraction of a second; each
// size still reaches the verdicts full pins (E20's crash point 3 is where
// the plain objects break).
var tiny = sizes{
	e1Runs: 20, e5Runs: 10, e19Runs: 9,
	e4Procs: 3, e1K: 4, e20CrashAts: []int{3},
	reducedProcs: []int{3, 4},
	wrnMaxK:      4, passes: 1,
}

// everything implements every optional object interface.
type everything struct{}

func (everything) Apply(*sim.Env, sim.Invocation) sim.Response { return sim.Respond(nil) }
func (everything) AppendStateSig(dst []byte) []byte            { return append(dst, 1) }
func (everything) StateKey() string                            { return "k" }
func (everything) CloneObject() sim.Object                     { return everything{} }
func (everything) OnCrash(int)                                 {}

func TestObjectWrapperExposesExactlyTheInnerInterfaces(t *testing.T) {
	tr := newTracer()
	for mask := 0; mask < 16; mask++ {
		inner := withInterfaces(&object{inner: everything{}, tr: tr}, mask)
		if got := objectMask(inner); got != mask {
			t.Fatalf("withInterfaces(%04b) exposes %04b", mask, got)
		}
		if got := objectMask(wrapObject(tr, inner)); got != mask {
			t.Errorf("wrapping an object with interfaces %04b exposes %04b", mask, got)
		}
	}
	zoo := []sim.Object{
		registers.New(nil), registers.NewCounter(), wrn.New(3), wrn.NewOneShot(3),
		consensus.NewSwap(nil), consensus.NewTestAndSet(), consensus.NewCell(2),
		consensus.NewQueue(1), consensus.NewFetchAdd(0),
		recoverable.NewRegister(nil), recoverable.NewScratch(), recoverable.NewTestAndSet(),
		recoverable.NewWRNCore(2), election.NewStrongObject(3), snapshot.NewObject(3, nil),
		setconsensus.NewObject(3, 2),
	}
	for _, x := range zoo {
		w := wrapObject(tr, x)
		if objectMask(w) != objectMask(x) {
			t.Errorf("%s: wrapper exposes %04b, object %04b", typeName(x), objectMask(w), objectMask(x))
		}
		if f, ok := w.(modelcheck.Finite); ok {
			if got, want := objectMask(f.CloneObject()), objectMask(x); got != want {
				t.Errorf("%s: wrapped clone exposes %04b, want %04b", typeName(x), got, want)
			}
			if f.StateKey() != x.(modelcheck.Finite).StateKey() {
				t.Errorf("%s: wrapped StateKey differs", typeName(x))
			}
		}
		if s, ok := w.(sim.StateSigner); ok {
			if !bytes.Equal(s.AppendStateSig(nil), x.(sim.StateSigner).AppendStateSig(nil)) {
				t.Errorf("%s: wrapped signature differs", typeName(x))
			}
		}
	}
	if x := registers.New(nil); wrapObject(nil, x) != sim.Object(x) {
		t.Error("untraced wrapObject must return the object itself")
	}
}

type plainSched struct{}

func (plainSched) Next(v sim.View) int { return v.Enabled[0] }

type observingSched struct{ plainSched }

func (observingSched) Observe(sim.Event) {}

type injectingSched struct{ plainSched }

func (injectingSched) Faults(sim.View) []sim.Fault { return nil }

type bothSched struct{ plainSched }

func (bothSched) Observe(sim.Event)           {}
func (bothSched) Faults(sim.View) []sim.Fault { return nil }

func TestSchedulerWrapperExposesExactlyTheInnerInterfaces(t *testing.T) {
	tr := newTracer()
	r := chaos.NewReport(1)
	for _, s := range []sim.Scheduler{
		plainSched{}, observingSched{}, injectingSched{}, bothSched{},
		sim.NewRandom(1), chaos.NewCrashRestart(sim.NewRandom(1), r, 0, 2, 3),
		chaos.Instrument(chaos.NewAdaptiveRestart(nil, r, 1, 4), r), chaos.NewAdaptive(1, r),
	} {
		if got, want := schedulerMask(wrapScheduler(tr, s)), schedulerMask(s); got != want {
			t.Errorf("%T: wrapper exposes %02b, scheduler %02b", s, got, want)
		}
	}
}

// TestWorkloadsTracedMatchUntraced runs every workload at the tiny size,
// untraced and traced: every unit must reach its pinned verdicts, every
// repetition the same digest as the first warm-up, and the result line
// must carry every metric BENCHMARK.json lists.
func TestWorkloadsTracedMatchUntraced(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := measure(w, 7, 0, traced, t.TempDir(), tiny, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if rec.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d units failed", w, traced, rec.Failed, rec.Attempted)
			}
			var out bytes.Buffer
			if err := report(&out, rec); err != nil {
				t.Errorf("%s traced=%v: %v", w, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
				t.Errorf("%s traced=%v: result line %q (%v)", w, traced, lines[len(lines)-1], err)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if _, err := measure("bogus", 1, 0, false, t.TempDir(), tiny, io.Discard); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// tables and the workload list.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	var e2e []metricDef
	for _, d := range endToEnd {
		if d.gated() {
			e2e = append(e2e, d)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, table has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2e, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}

// TestReferenceAllocatesNothing keeps the reference kernel's time free of
// the workload's heap: a kernel that allocated would pace the GC by it.
func TestReferenceAllocatesNothing(t *testing.T) {
	r, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		if err := r.kernel(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("the reference kernel allocates %v times per run", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLatencyHistPercentile(t *testing.T) {
	var h latencyHist
	for us := 1; us <= 1000; us++ {
		h.add(float64(us) * 1e3)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500e3}, {99, 990e3}} {
		if got := h.percentile(c.p); got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("p%v = %v ns, want %v within 1%%", c.p, got, c.want)
		}
	}
}

// TestCompareGatesOnScaledTimesOnly checks that a raw time worsening
// past its bound is reported but does not fail --compare, while a scaled
// one does.
func TestCompareGatesOnScaledTimesOnly(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, wall, raw float64) string {
		rec := record{Workload: "sampled", Attempted: 1, Metrics: []metric{
			{"wall_s", wall, "s"}, {"raw_wall_s", raw, "s"}, {"fail_ratio", 0, "ratio"},
		}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name + ".json"
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent", 1, 1)
	for _, c := range []struct {
		name      string
		wall, raw float64
		want      bool
	}{
		{"slower-host", 1, 2, true},
		{"slower-code", 2, 2, false},
	} {
		ok, err := compare(io.Discard, parent, write(c.name, c.wall, c.raw))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want {
			t.Errorf("%s: compare reported %v, want %v", c.name, ok, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metricDef{name: "wall_s", better: "lower", bound: 0.10}
	steady := side{median: 1, q1: 0.99, q3: 1.01}
	for _, c := range []struct {
		a, b side
		want string
	}{
		{steady, side{median: 1.2}, "worse"},
		{steady, side{median: 1.05}, "same"},
		{steady, side{median: 0.9}, "better"},
		{side{median: 1, q1: 0.8, q3: 1.2}, side{median: 0.9}, "unresolved"},
	} {
		if _, got := verdict(wall, c.a, c.b); got != c.want {
			t.Errorf("verdict(%+v, %+v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
