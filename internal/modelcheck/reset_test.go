package modelcheck

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"detobj/internal/consensus"
	"detobj/internal/recoverable"
	"detobj/internal/registers"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// resetCase is one object type with Reset: a constructor, the
// invocations a random drive draws from, and how many process ids it
// draws callers from.
type resetCase struct {
	name  string
	fresh func() sim.Object
	ops   []sim.Invocation
	procs int
}

func inv(op string, args ...sim.Value) sim.Invocation { return sim.Invocation{Op: op, Args: args} }

// resetCases lists every object type the engine workloads and
// cmd/detobj build, each with its full operation alphabet.
func resetCases() []resetCase {
	wrnOps := []sim.Invocation{inv("WRN", 0, "x"), inv("WRN", 1, "y"), inv("WRN", 2, "x"), inv("WRN", 2, "z")}
	regOps := []sim.Invocation{inv("read"), inv("write", "a"), inv("write", 7)}
	return []resetCase{
		{"wrn.Object", func() sim.Object { return wrn.New(3) }, wrnOps, 1},
		{"wrn.OneShot", func() sim.Object { return wrn.NewOneShot(3) }, wrnOps, 1},
		{"registers.Register MWMR", func() sim.Object { return registers.New("init") }, regOps, 3},
		{"registers.Register SWMR", func() sim.Object { return registers.NewSWMR("init", 0) }, regOps, 1},
		{"registers.Counter", func() sim.Object { return registers.NewCounter() }, []sim.Invocation{inv("inc"), inv("read")}, 1},
		{"consensus.Swap", func() sim.Object { return consensus.NewSwap("init") }, []sim.Invocation{inv("swap", "a"), inv("swap", 7)}, 1},
		{"consensus.TestAndSet", func() sim.Object { return consensus.NewTestAndSet() }, []sim.Invocation{inv("tas")}, 1},
		{"consensus.Queue", func() sim.Object { return consensus.NewQueue("w", 3) },
			[]sim.Invocation{inv("enq", "a"), inv("enq", 7), inv("deq"), inv("deq")}, 1},
		{"consensus.FetchAdd", func() sim.Object { return consensus.NewFetchAdd(5) }, []sim.Invocation{inv("fad", 1), inv("fad", -3)}, 1},
		{"recoverable.TestAndSet", func() sim.Object { return recoverable.NewTestAndSet() }, []sim.Invocation{inv("tas"), inv("winner")}, 3},
		{"recoverable.WRNCore", func() sim.Object { return recoverable.NewWRNCore(2) },
			[]sim.Invocation{inv("apply", 0, 0, "a"), inv("apply", 1, 1, "b"), inv("applied", 0), inv("lookup", 1)}, 2},
		{"recoverable.Scratch", func() sim.Object { return recoverable.NewScratch() },
			[]sim.Invocation{inv("put", "a"), inv("put", 7), inv("get")}, 2},
	}
}

// drive applies up to 12 random operations of c to obj. A recoverable
// object also takes random crashes.
func drive(rng *rand.Rand, c resetCase, obj sim.Object) {
	for i := rng.Intn(13); i > 0; i-- {
		proc := rng.Intn(c.procs)
		if r, ok := obj.(sim.Recoverable); ok && rng.Intn(4) == 0 {
			r.OnCrash(proc)
			continue
		}
		obj.Apply(&sim.Env{Proc: proc}, c.ops[rng.Intn(len(c.ops))])
	}
}

// checkFresh requires obj to equal a freshly constructed object: deeply,
// by state signature and by state key.
func checkFresh(t *testing.T, what string, obj, fresh sim.Object) {
	t.Helper()
	if !reflect.DeepEqual(obj, fresh) {
		t.Fatalf("%s: reset to %#v, fresh is %#v", what, obj, fresh)
	}
	if s, ok := obj.(sim.StateSigner); ok {
		if got, want := s.AppendStateSig(nil), fresh.(sim.StateSigner).AppendStateSig(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: reset signs %x, fresh signs %x", what, got, want)
		}
	}
	if k, ok := obj.(interface{ StateKey() string }); ok {
		if got, want := k.StateKey(), fresh.(interface{ StateKey() string }).StateKey(); got != want {
			t.Fatalf("%s: reset keys %q, fresh keys %q", what, got, want)
		}
	}
}

// TestResetMatchesFresh: after seeded random operation sequences, Reset
// returns every object type, and a CloneObject copy of it driven
// further, to exactly the state of a freshly constructed object.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, c := range resetCases() {
		if _, ok := c.fresh().(resetter); !ok {
			t.Fatalf("%s has no Reset", c.name)
		}
		for trial := 0; trial < 40; trial++ {
			obj := c.fresh()
			drive(rng, c, obj)
			var cp sim.Object
			if cl, ok := obj.(interface{ CloneObject() sim.Object }); ok {
				cp = cl.CloneObject()
				drive(rng, c, cp)
			}
			obj.(resetter).Reset()
			checkFresh(t, fmt.Sprintf("%s trial %d", c.name, trial), obj, c.fresh())
			if cp != nil {
				cp.(resetter).Reset()
				checkFresh(t, fmt.Sprintf("%s trial %d clone", c.name, trial), cp, c.fresh())
			}
		}
	}
}

// signOf returns obj's state signature as the engine signs it, and
// whether obj has one.
func signOf(obj sim.Object) ([]byte, bool) {
	switch obj := obj.(type) {
	case sim.StateSigner:
		return obj.AppendStateSig(nil), true
	case interface{ StateKey() string }:
		return sim.AppendStringSig(nil, obj.StateKey()), true
	}
	return nil, false
}

// hidden wraps an object without its Reset, so that an engine call over
// it falls back to calling the factory per fresh run. hiddenSigner also
// keeps the object's signature, so the transposition table sees the
// same bytes.
type hidden struct{ inner sim.Object }

func (h hidden) Apply(env *sim.Env, i sim.Invocation) sim.Response { return h.inner.Apply(env, i) }

type hiddenSigner struct{ hidden }

func (h hiddenSigner) AppendStateSig(dst []byte) []byte {
	sig, _ := signOf(h.inner)
	return append(dst, sig...)
}

// hideReset returns f with Reset hidden on every object, or only on the
// object first in name order.
func hideReset(f Factory, all bool) Factory {
	return func() sim.Config {
		cfg := f()
		names := make([]string, 0, len(cfg.Objects))
		for name := range cfg.Objects {
			names = append(names, name)
		}
		sort.Strings(names)
		if !all {
			names = names[:1]
		}
		for _, name := range names {
			obj := cfg.Objects[name]
			if _, ok := signOf(obj); ok {
				cfg.Objects[name] = hiddenSigner{hidden{obj}}
			} else {
				cfg.Objects[name] = hidden{obj}
			}
		}
		return cfg
	}
}

// liveSigs signs the live run's objects in name order, as the engine
// signs them, and "-" for an object without a signature.
func liveSigs(red *reducer) string {
	var b bytes.Buffer
	for _, name := range red.objOrder {
		if sig, ok := signOf(red.objects[name]); ok {
			fmt.Fprintf(&b, " %x", sig)
		} else {
			b.WriteString(" -")
		}
	}
	return b.String()
}

// engineLog runs the explore and the valency engine over f, with the
// transposition table on or off, and logs every signature the engine
// computes, every visited execution with its objects' signatures, and
// both reports. It returns the factory calls and the runs of both.
func engineLog(t *testing.T, f Factory, noDedup bool) (log []string, calls, runs int) {
	t.Helper()
	counted := func() sim.Config {
		calls++
		return f()
	}
	for _, valency := range []bool{false, true} {
		red, err := newReducer(counted, Reduced{noDedup: noDedup}, 0)
		if err != nil {
			t.Fatal(err)
		}
		red.onSign = func(sig []byte) {
			log = append(log, fmt.Sprintf("sign %v %v %x", red.sched, red.choices, sig))
		}
		var rep *SymmetryReport
		if valency {
			var vrep *ValencyReport
			vrep, rep, err = red.valency()
			log = append(log, fmt.Sprintf("valency %+v", vrep))
		} else {
			rep, err = red.explore(func(e Execution, _ int) error {
				log = append(log, renderExec(e)+liveSigs(red))
				return nil
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, fmt.Sprintf("report %+v", *rep))
		runs += rep.Runs
	}
	return log, calls, runs
}

// TestRearmedRunsMatchFreshRuns: over the E4, E11 and E20 factories,
// with the table on and off, the engine that re-arms one configuration
// computes the same signatures, visits and reports as the same factory
// with Reset hidden on every object, which builds every run fresh. It
// calls the factory once per engine call; with Reset hidden on even one
// object it calls it once more per run.
func TestRearmedRunsMatchFreshRuns(t *testing.T) {
	for _, fc := range oracleFactories() {
		if !strings.HasPrefix(fc.name, "relaxed") && !strings.HasPrefix(fc.name, "E11") && !strings.HasPrefix(fc.name, "E20") {
			continue
		}
		for _, noDedup := range []bool{false, true} {
			what := fmt.Sprintf("%s dedup=%v", fc.name, !noDedup)
			want, freshCalls, runs := engineLog(t, hideReset(fc.f, true), noDedup)
			if freshCalls != 2+runs {
				t.Errorf("%s, Reset hidden: %d factory calls for %d runs, want %d", what, freshCalls, runs, 2+runs)
			}
			for _, v := range []struct {
				name  string
				f     Factory
				calls int
			}{
				{"re-armed", fc.f, 2},
				{"one Reset hidden", hideReset(fc.f, false), 2 + runs},
			} {
				got, calls, _ := engineLog(t, v.f, noDedup)
				if calls != v.calls {
					t.Errorf("%s, %s: %d factory calls, want %d", what, v.name, calls, v.calls)
				}
				for i := range want {
					if i >= len(got) || got[i] != want[i] {
						t.Fatalf("%s, %s: entry %d diverges from fresh runs:\n got %q\nwant %q", what, v.name, i, at(got, i), want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("%s, %s: %d log entries, want %d", what, v.name, len(got), len(want))
				}
			}
		}
	}
}
