package modelcheck

import (
	"errors"
	"fmt"
	"reflect"
	gort "runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"detobj/internal/consensus"
	"detobj/internal/recoverable"
	"detobj/internal/sim"
)

// runFromRoot runs the configuration from the root under a fixed
// schedule and choice script and stops it once the schedule is used up,
// with wrap (when non-nil) around the fixed scheduler.
func runFromRoot(f Factory, wrap func(inner sim.Scheduler) sim.Scheduler, sched, choices []int) (*sim.Result, error) {
	cfg := f()
	var s sim.Scheduler = sim.NewFixed(sched...)
	if wrap != nil {
		s = wrap(s)
	}
	cfg.Scheduler = s
	cfg.Choice = &scriptSource{script: choices}
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, decodeRunError(err)
	}
	return res, nil
}

// signFromRoot is the replay-from-root oracle for the reducer's
// signature: it runs the (sched, choices) prefix from the root, stops
// it there under a Fixed with no fallback, and signs the stopped
// configuration from its Result.Status, the response histories and the
// objects' state signatures in sorted name order.
func signFromRoot(f Factory, sched, choices []int) ([]byte, error) {
	var objects map[string]sim.Object
	var hist [][]byte
	res, err := runFromRoot(func() sim.Config {
		cfg := f()
		objects = cfg.Objects
		hist = make([][]byte, len(cfg.Programs))
		cfg.OnStep = func(proc int, out sim.Value, hang bool) {
			if hang {
				hist[proc] = append(hist[proc], 0x00)
			} else {
				hist[proc] = sim.AppendValueSig(hist[proc], out)
			}
		}
		return cfg
	}, nil, sched, choices)
	if err != nil {
		return nil, err
	}
	var sig []byte
	for i, st := range res.Status {
		sig = append(sig, byte(st))
		sig = sim.AppendIntSig(sig, len(hist[i]))
		sig = append(sig, hist[i]...)
	}
	names := make([]string, 0, len(objects))
	for name := range objects {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var os []byte
		switch obj := objects[name].(type) {
		case sim.StateSigner:
			os = obj.AppendStateSig(nil)
		case interface{ StateKey() string }:
			os = sim.AppendStringSig(nil, obj.StateKey())
		default:
			return nil, fmt.Errorf("object %q has no signature", name)
		}
		sig = sim.AppendIntSig(sig, len(os))
		sig = append(sig, os...)
	}
	return sig, nil
}

// appendStep extends a prefix without aliasing the parent's backing
// array (siblings share the parent slice, so plain append would race).
func appendStep(prefix []int, v int) []int {
	return append(prefix[:len(prefix):len(prefix)], v)
}

// naiveExplore is the replay-from-root oracle for Explore: every tree
// node is a run of its own, and a node's children are read off the
// stopped run's Result.Enabled.
func naiveExplore(f Factory, sched, choices []int, emit func(e Execution)) error {
	res, err := runFromRoot(f, nil, sched, choices)
	if err != nil {
		var demand choiceDemand
		if !asDemand(err, &demand) {
			return err
		}
		for c := 0; c < demand.n; c++ {
			if err := naiveExplore(f, sched, appendStep(choices, c), emit); err != nil {
				return err
			}
		}
		return nil
	}
	if len(res.Enabled) == 0 {
		emit(Execution{Schedule: append([]int(nil), sched...), Choices: append([]int(nil), choices...), Result: res})
		return nil
	}
	for _, id := range res.Enabled {
		if err := naiveExplore(f, appendStep(sched, id), choices, emit); err != nil {
			return err
		}
	}
	return nil
}

// decisionValues is the set of values decided within one complete
// execution (outputs of StatusDone processes, rendered).
func decisionValues(res *sim.Result) map[string]bool {
	vals := map[string]bool{}
	for i, st := range res.Status {
		if st == sim.StatusDone {
			vals[sim.Sprint(res.Outputs[i])] = true
		}
	}
	return vals
}

// naiveValency is the replay-from-root oracle for AnalyzeValency and
// AnalyzeValencyUnder. It adds the subtree's counts and its DFS-first
// disagreement to rep, adds every decided value to values, and returns
// the node's value set.
func naiveValency(f Factory, wrap func(inner sim.Scheduler) sim.Scheduler, sched []int, rep *ValencyReport, values map[string]bool) (map[string]bool, error) {
	res, err := runFromRoot(f, wrap, sched, nil)
	if err != nil {
		if asDemand(err, new(choiceDemand)) {
			return nil, errNondetValency(err)
		}
		return nil, err
	}
	rep.Configs++
	set := map[string]bool{}
	if len(res.Enabled) == 0 {
		rep.Executions++
		set = decisionValues(res)
		if len(set) > 1 && rep.Agreement {
			rep.Agreement = false
			rep.DisagreementSchedule = append([]int(nil), sched...)
		}
	}
	univalentKids := true
	for _, id := range res.Enabled {
		kid, err := naiveValency(f, wrap, appendStep(sched, id), rep, values)
		if err != nil {
			return nil, err
		}
		univalentKids = univalentKids && len(kid) <= 1
		for v := range kid {
			set[v] = true
		}
	}
	if len(res.Enabled) > 0 && len(set) > 1 {
		rep.Bivalent++
		if univalentKids {
			rep.Critical++
		}
	}
	for v := range set {
		values[v] = true
	}
	return set, nil
}

// naiveReport runs naiveValency from the root and renders the report.
func naiveReport(f Factory, wrap func(inner sim.Scheduler) sim.Scheduler) (*ValencyReport, error) {
	rep := &ValencyReport{Agreement: true}
	values := map[string]bool{}
	if _, err := naiveValency(f, wrap, nil, rep, values); err != nil {
		return nil, err
	}
	for v := range values {
		rep.Values = append(rep.Values, v)
	}
	sort.Strings(rep.Values)
	return rep, nil
}

// twoProcs builds a two-process protocol on object "X" whose processes
// propose 10 and 20, as cmd/modelcheck's E11 and E20 tables do.
func twoProcs(build func(map[string]sim.Object, string, sim.Value, sim.Value) []sim.Program) Factory {
	return func() sim.Config {
		objects := map[string]sim.Object{}
		return sim.Config{Objects: objects, Programs: build(objects, "X", 10, 20)}
	}
}

// oracleFactories are the configurations the carried engines must
// explore exactly as the naive oracle does: counters, coins (whose
// choice demands arrive inside carried runs), the E4 relaxed-WRN race,
// the E11 protocols and the E20 objects.
func oracleFactories() []struct {
	name string
	f    Factory
} {
	return []struct {
		name string
		f    Factory
	}{
		{"counter2x1", counterFactory(2, 1)},
		{"counter3x2", counterFactory(3, 2)},
		{"coin1x2", coinFactory(1, 2)},
		{"coin2x2", coinFactory(2, 2)},
		{"relaxedWRN3x3", relaxedFactory(3, 3)},
		{"E11 swap", twoProcs(consensus.TwoConsFromSwap)},
		{"E11 wrn2", twoProcs(consensus.TwoConsFromWRN2)},
		{"E11 tas", twoProcs(consensus.TwoConsFromTAS)},
		{"E11 queue", twoProcs(consensus.TwoConsFromQueue)},
		{"E11 fetchadd", twoProcs(consensus.TwoConsFromFetchAdd)},
		{"E11 naive3", func() sim.Config {
			objects := map[string]sim.Object{}
			progs := consensus.ThreeFromWRN2Naive(objects, "W", [3]sim.Value{10, 20, 30})
			return sim.Config{Objects: objects, Programs: progs}
		}},
		{"E20 plain TAS", twoProcs(recoverable.TwoConsFromPlainTAS)},
		{"E20 rec TAS", twoProcs(recoverable.TwoConsFromRecTAS)},
		{"E20 plain WRN_2", twoProcs(recoverable.TwoConsFromPlainWRN2)},
		{"E20 rec WRN_2", twoProcs(recoverable.TwoConsFromRecWRN2)},
	}
}

// renderExec pins down everything Explore exposes about one execution,
// the rendered trace included, so two visit sequences can be compared
// byte for byte.
func renderExec(e Execution) string {
	r := e.Result
	return fmt.Sprintf("sched=%v choices=%v out=%v status=%v enabled=%v steps=%d restarts=%v\n%s",
		e.Schedule, e.Choices, r.Outputs, r.Status, r.Enabled, r.Steps, r.Restarts, r.Trace)
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<missing>"
}

// naiveVisits is the oracle's visit sequence for f.
func naiveVisits(t *testing.T, f Factory) []string {
	t.Helper()
	var want []string
	if err := naiveExplore(f, nil, nil, func(e Execution) { want = append(want, renderExec(e)) }); err != nil {
		t.Fatalf("naive oracle: %v", err)
	}
	return want
}

// checkVisits compares an engine's visit sequence with the oracle's.
func checkVisits(t *testing.T, what string, got, want []string, n int, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if n != len(want) {
		t.Errorf("%s: count %d, want %d", what, n, len(want))
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("%s: visit %d diverges:\n got %q\nwant %q", what, i, at(got, i), want[i])
		}
	}
	if len(got) > len(want) {
		t.Fatalf("%s: %d extra visits", what, len(got)-len(want))
	}
}

// TestExploreMatchesNaiveOracle: the carried Explore visits exactly the
// oracle's executions, in its order, down to the rendered traces.
func TestExploreMatchesNaiveOracle(t *testing.T) {
	for _, fc := range oracleFactories() {
		want := naiveVisits(t, fc.f)
		var got []string
		n, err := Explore(fc.f, 0, func(e Execution) error {
			got = append(got, renderExec(e))
			return nil
		})
		checkVisits(t, fc.name, got, want, n, err)
	}
}

// TestExploreExecutionsOutliveTheRun: every Execution Explore visits is
// the caller's to keep. Rendered only after Explore has returned, and
// so after later runs reused the engine's arena, each must still match
// the oracle's, trace included.
func TestExploreExecutionsOutliveTheRun(t *testing.T) {
	for _, fc := range oracleFactories() {
		want := naiveVisits(t, fc.f)
		var kept []Execution
		n, err := Explore(fc.f, 0, func(e Execution) error {
			kept = append(kept, e)
			return nil
		})
		got := make([]string, len(kept))
		for i, e := range kept {
			got[i] = renderExec(e)
		}
		checkVisits(t, fc.name, got, want, n, err)
	}
}

// checkReport compares an engine's valency report (or error) with the
// oracle's, field for field.
func checkReport(t *testing.T, what string, got *ValencyReport, err error, want *ValencyReport, wantErr error) {
	t.Helper()
	if wantErr != nil {
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s: err = %v, want %v", what, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestValencyMatchesNaiveOracle covers AnalyzeValency on every oracle
// factory; the coins must fail the same way.
func TestValencyMatchesNaiveOracle(t *testing.T) {
	for _, fc := range oracleFactories() {
		want, wantErr := naiveReport(fc.f, nil)
		got, err := AnalyzeValency(fc.f, 0)
		checkReport(t, fc.name, got, err, want, wantErr)
	}
}

// TestValencyUnderMatchesNaiveOracle covers AnalyzeValencyUnder on the
// E20 objects at every sweep point of cmd/modelcheck's E20 table, where
// a carried run keeps its crash-restart adversary into the first
// child. The oracle replays about 400k configurations, so the sweep
// points run as parallel subtests; -short keeps the window-3 half,
// whose trees are about ten times smaller.
func TestValencyUnderMatchesNaiveOracle(t *testing.T) {
	windows := []int{0, 3}
	if testing.Short() {
		windows = []int{3}
	}
	for _, fc := range oracleFactories() {
		if !strings.HasPrefix(fc.name, "E20") {
			continue
		}
		for victim := 0; victim < 2; victim++ {
			for crashAt := 0; crashAt <= 6; crashAt++ {
				for _, window := range windows {
					what := fmt.Sprintf("%s victim=%d crashAt=%d window=%d", fc.name, victim, crashAt, window)
					wrap := restartWrap(victim, crashAt, window)
					t.Run(what, func(t *testing.T) {
						t.Parallel()
						want, wantErr := naiveReport(fc.f, wrap)
						got, err := AnalyzeValencyUnder(fc.f, wrap, 0)
						checkReport(t, what, got, err, want, wantErr)
					})
				}
			}
		}
	}
}

// TestRootLeafDisagreement: when every process decides without invoking
// an object, the root is the only execution, and two different
// decisions there are a disagreement with an empty schedule. Every
// valency engine must report it.
func TestRootLeafDisagreement(t *testing.T) {
	f := func() sim.Config {
		return sim.Config{Programs: []sim.Program{
			func(*sim.Ctx) sim.Value { return "a" },
			func(*sim.Ctx) sim.Value { return "b" },
		}}
	}
	reduced := func(f Factory, limit int) (*ValencyReport, error) {
		rep, _, err := AnalyzeValencyReduced(f, Reduced{}, limit)
		return rep, err
	}
	engines := []struct {
		name string
		run  func(Factory, int) (*ValencyReport, error)
	}{
		{"AnalyzeValency", AnalyzeValency},
		{"AnalyzeValencyUnder", func(f Factory, limit int) (*ValencyReport, error) { return AnalyzeValencyUnder(f, nil, limit) }},
		{"AnalyzeValencyReduced", reduced},
	}
	for _, e := range engines {
		rep, err := e.run(f, 0)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if rep.Agreement || !reflect.DeepEqual(rep.Values, []string{"a", "b"}) || rep.Executions != 1 {
			t.Errorf("%s: %+v, want one execution disagreeing on [a b]", e.name, rep)
		}
	}
}

// goroutineSlack is sim's idle-worker bound: the process pool may keep
// that many parked goroutines across engine calls.
const goroutineSlack = 64

// checkNoGoroutineGrowth fails t if the goroutine count exceeds before
// by more than goroutineSlack, after waiting up to a second for worker
// goroutines that are already exiting.
func checkNoGoroutineGrowth(t *testing.T, what string, before int) {
	t.Helper()
	after := gort.NumGoroutine()
	for i := 0; i < 1000 && after > before+goroutineSlack; i++ {
		time.Sleep(time.Millisecond)
		after = gort.NumGoroutine()
	}
	if after > before+goroutineSlack {
		t.Errorf("%s: goroutines grew from %d to %d", what, before, after)
	}
}

// earlyExitReps repeats each early exit often enough that one leaked
// coroutine per exit outgrows the idle-worker slack.
const earlyExitReps = 200

// runEarlyExits runs each case earlyExitReps times and checks that the
// goroutine count stays within the slack.
func runEarlyExits(t *testing.T, cases []struct {
	name string
	run  func() error
}) {
	for _, c := range cases {
		before := gort.NumGoroutine()
		for i := 0; i < earlyExitReps; i++ {
			if err := c.run(); err == nil {
				t.Fatalf("%s: the engine did not exit early", c.name)
			}
		}
		checkNoGoroutineGrowth(t, c.name, before)
	}
}

// exploreReducedTrip runs ExploreReduced's search and reports whether
// the run was parked at the last node the engine signed. A budget trip
// at a transposition hit on an internal node returns with that run
// parked, for the deferred stop to end.
func exploreReducedTrip(f Factory, r Reduced, limit int) (parked bool, err error) {
	red, err := newReducer(f, r, limit)
	if err != nil {
		return false, err
	}
	red.onSign = func([]byte) { parked = red.d.parked }
	_, err = red.explore(nil)
	return parked, err
}

// TestEarlyExitLeavesNoGoroutines: every way a sequential or reduced
// engine can stop before the tree ends must stop its run driver.
func TestEarlyExitLeavesNoGoroutines(t *testing.T) {
	f := counterFactory(3, 2)
	boom := errors.New("boom")
	s3 := SymmetricClasses(3, []int{0, 1, 2})
	s3Renamed := s3
	s3Renamed.Rename = identRename
	runEarlyExits(t, []struct {
		name string
		run  func() error
	}{
		{"visit error", func() error {
			_, err := Explore(f, 0, func(Execution) error { return boom })
			return err
		}},
		{"visit panic", func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("recovered %v", r)
				}
			}()
			_, err = Explore(f, 0, func(Execution) error { panic("visit panicked") })
			return err
		}},
		{"Explore ErrLimit", func() error {
			_, err := Explore(f, 3, func(Execution) error { return nil })
			return err
		}},
		{"AnalyzeValency ErrLimit", func() error {
			_, err := AnalyzeValency(f, 3)
			return err
		}},
		{"ExploreReduced visit error", func() error {
			_, err := ExploreReduced(f, Reduced{Sym: s3}, 0, func(Execution, int) error { return boom })
			return err
		}},
		{"ExploreReduced ErrLimit at a hit", func() error {
			// Under the trivial group the subtree below [0] charges 560
			// executions. [1 0] then re-reaches the configuration of
			// [0 1], whose 210 executions trip a budget of 769 while
			// the run of [1 0] is still parked.
			parked, err := exploreReducedTrip(f, Reduced{}, 769)
			if !errors.Is(err, ErrLimit) || !parked {
				t.Errorf("err %v, parked %v: want ErrLimit at a parked hit", err, parked)
			}
			return err
		}},
		{"ExploreReduced ErrLimit at a leaf", func() error {
			// The first canonical leaf under S3 has an orbit of 6.
			rep, err := ExploreReduced(f, Reduced{Sym: s3}, 1, nil)
			if !errors.Is(err, ErrLimit) || rep.Hits != 0 || rep.Representatives != 0 {
				t.Errorf("err %v, report %+v: want ErrLimit at the first leaf", err, rep)
			}
			return err
		}},
		{"AnalyzeValencyReduced ErrLimit", func() error {
			// The same parked hit as in ExploreReduced's case.
			_, _, err := AnalyzeValencyReduced(f, Reduced{}, 769)
			return err
		}},
		{"AnalyzeValencyReduced ErrLimit at a leaf", func() error {
			_, _, err := AnalyzeValencyReduced(f, Reduced{Sym: s3Renamed}, 1)
			return err
		}},
		{"AnalyzeValencyReduced missing Rename", func() error {
			_, _, err := AnalyzeValencyReduced(f, Reduced{Sym: s3}, 0)
			return err
		}},
		{"AnalyzeValencyReduced nondeterministic object", func() error {
			_, _, err := AnalyzeValencyReduced(coinFactory(2, 1), Reduced{}, 0)
			return err
		}},
	})
}
