package sim

import (
	"errors"
	"reflect"
	gort "runtime"
	"testing"
	"time"

	"detobj/internal/par"
)

// idleWorkers is the number of workers parked in the pool.
func idleWorkers() int {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return len(pool.idle)
}

// busyGoroutines counts goroutines other than the pool's idle workers.
func busyGoroutines() int { return gort.NumGoroutine() - idleWorkers() }

// checkNoLeak fails t if more than before goroutines besides the idle
// workers remain, after waiting up to a second for goroutines that are
// already exiting (par's workers after ForEach returns).
func checkNoLeak(t *testing.T, before int) {
	t.Helper()
	after := busyGoroutines()
	for i := 0; i < 1000 && after > before; i++ {
		time.Sleep(time.Millisecond)
		after = busyGoroutines()
	}
	if after > before {
		t.Errorf("goroutines besides idle workers grew from %d to %d", before, after)
	}
	if idle := idleWorkers(); idle > maxIdleWorkers {
		t.Errorf("%d idle workers, bound is %d", idle, maxIdleWorkers)
	}
}

// impureArgs returns a program that passes its execution count as an
// argument, so VerifyReplay's re-execution diverges at an invocation.
func impureArgs() Program {
	calls := 0
	return func(ctx *Ctx) Value {
		calls++
		ctx.Invoke("C", "inc")
		ctx.Invoke("C", "inc", calls)
		return ctx.Invoke("C", "read")
	}
}

// impureMark is impureArgs with the divergence in a BeginOp mark.
func impureMark() Program {
	calls := 0
	return func(ctx *Ctx) Value {
		calls++
		ctx.Invoke("C", "inc")
		ctx.BeginOp("X", "op", calls)
		ctx.Invoke("C", "inc")
		ctx.EndOp("X", "op", nil)
		return nil
	}
}

// swallowsAbort recovers the abort unwinding its parked Invoke and then
// makes one more Ctx call, which must unwind at once instead of yielding.
func swallowsAbort(ctx *Ctx) Value {
	defer func() {
		if recover() != nil {
			ctx.EndOp("X", "op", nil)
		}
	}()
	ctx.BeginOp("X", "op")
	ctx.Invoke("C", "inc")
	ctx.Invoke("C", "inc")
	ctx.EndOp("X", "op", nil)
	return nil
}

// endings has one configuration per way a run can end, each with several
// processes so that some are parked when it does.
var endings = []struct {
	name    string
	cfg     func(seed int64) Config
	wantErr error        // nil: Run succeeds
	status  []ProcStatus // when set, the final statuses at seed 0
}{
	{"done", func(seed int64) Config {
		return Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{incThenRead(2), incThenRead(3), incThenRead(2)},
			Scheduler:    NewRandom(seed),
			VerifyReplay: true,
		}
	}, nil, []ProcStatus{StatusDone, StatusDone, StatusDone}},
	{"hung", func(seed int64) Config {
		return Config{
			Objects: map[string]Object{"C": &testCounter{budget: 2}, "D": &testCounter{}},
			Programs: []Program{
				incThenRead(5),
				func(ctx *Ctx) Value { return ctx.Invoke("D", "read") },
				incThenRead(4),
			},
			Scheduler:    NewRandom(seed),
			VerifyReplay: true,
		}
	}, nil, nil},
	{"stopped", func(int64) Config {
		return Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{incThenRead(10), incThenRead(10)},
			Scheduler:    NewFixed(0, 1, 0),
			VerifyReplay: true,
		}
	}, nil, []ProcStatus{StatusStopped, StatusStopped}},
	{"program panic", func(seed int64) Config {
		return Config{
			Objects: map[string]Object{"C": &testCounter{}},
			Programs: []Program{
				incThenRead(3),
				func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); panic("boom") },
				incThenRead(3),
			},
			Scheduler: NewRandom(seed),
		}
	}, ErrProgramPanic, nil},
	{"object panic", func(seed int64) Config {
		return Config{
			Objects: map[string]Object{"C": &testCounter{}},
			Programs: []Program{
				incThenRead(3),
				func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); return ctx.Invoke("C", "bogus") },
				incThenRead(3),
			},
			Scheduler: NewRandom(seed),
		}
	}, ErrObjectPanic, nil},
	{"crashed", func(int64) Config {
		return Config{
			Objects:      map[string]Object{"C": &testDurableCell{}},
			Programs:     []Program{stageFlushRead(1), stageFlushRead(2)},
			Scheduler:    &scriptInjector{inner: NewRoundRobin(), victim: 0, crashAt: 1, noRestart: true},
			VerifyReplay: true,
		}
	}, nil, []ProcStatus{StatusCrashed, StatusDone}},
	{"crashed during recovery", func(int64) Config {
		return Config{
			Objects:   map[string]Object{"C": &testDurableCell{}, "D": &testDurableCell{}},
			Programs:  []Program{stageFlushRead(42), stageFlushRead(7)},
			Scheduler: &recrashInjector{inner: NewRoundRobin(), victim: 0, crashAt: []int{1, 2}},
			Recovery: func(ctx *Ctx) {
				ctx.Invoke("D", "note", ctx.Incarnation())
				ctx.Invoke("D", "peek")
			},
			VerifyReplay: true,
		}
	}, nil, []ProcStatus{StatusDone, StatusDone}},
	{"replay divergence at an invocation", func(seed int64) Config {
		return Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{incThenRead(2), impureArgs(), incThenRead(2)},
			Scheduler:    NewRandom(seed),
			VerifyReplay: true,
		}
	}, ErrReplayDivergence, nil},
	{"replay divergence at a mark", func(seed int64) Config {
		return Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{incThenRead(2), impureMark(), incThenRead(2)},
			Scheduler:    NewRandom(seed),
			VerifyReplay: true,
		}
	}, ErrReplayDivergence, nil},
	{"step budget", func(seed int64) Config {
		return Config{
			Objects:   map[string]Object{"C": &testCounter{}},
			Programs:  []Program{incThenRead(10), incThenRead(10)},
			Scheduler: NewRandom(seed),
			MaxSteps:  5,
		}
	}, ErrMaxSteps, nil},
	{"bad schedule", func(int64) Config {
		return Config{
			Objects:   map[string]Object{"C": &testCounter{}},
			Programs:  []Program{incThenRead(3), incThenRead(3)},
			Scheduler: Func(func(View) int { return 7 }),
		}
	}, ErrBadSchedule, nil},
	{"abort swallowed", func(int64) Config {
		return Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{swallowsAbort, incThenRead(3)},
			Scheduler:    NewFixed(0, 1),
			VerifyReplay: true,
		}
	}, nil, []ProcStatus{StatusStopped, StatusStopped}},
}

// TestNoGoroutineLeaks is the pool-hygiene check: whichever way a run
// ends — every process done, hung, stopped, failed, crashed, crashed
// during recovery, rejected by VerifyReplay, over budget, misscheduled,
// or unwound by a scheduler panic — every worker goes back to the pool,
// the pool stays within its bound, and no other goroutine survives.
func TestNoGoroutineLeaks(t *testing.T) {
	before := busyGoroutines()
	for _, c := range endings {
		for seed := int64(0); seed < 50; seed++ {
			res, err := Run(c.cfg(seed))
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("%s, seed %d: Run = %v, want %v", c.name, seed, err, c.wantErr)
			}
			if seed == 0 && c.status != nil && !reflect.DeepEqual(res.Status, c.status) {
				t.Fatalf("%s: statuses %v, want %v", c.name, res.Status, c.status)
			}
		}
	}
	for i := 0; i < 20; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("scheduler panic did not reach the caller")
				}
			}()
			Run(Config{
				Objects:  map[string]Object{"C": &testCounter{}},
				Programs: []Program{incThenRead(3), incThenRead(3)},
				Scheduler: Func(func(v View) int {
					if v.Step == 2 {
						panic("scheduler")
					}
					return v.Enabled[0]
				}),
			})
		}()
	}
	checkNoLeak(t, before)
}

// TestGoexitInProgramRetiresItsWorker: a program that calls
// runtime.Goexit (t.FailNow inside a program) ends the goroutine that
// called Run, and its coroutine with it. Run's cleanup still returns the
// other workers, and the dead one never re-enters the pool, where it
// would hand the next run a stale message.
func TestGoexitInProgramRetiresItsWorker(t *testing.T) {
	before := busyGoroutines()
	exited := make(chan bool)
	go func() {
		returned := false
		defer func() { exited <- returned }()
		Run(Config{
			Objects: map[string]Object{"C": &testCounter{}},
			Programs: []Program{
				incThenRead(3),
				func(ctx *Ctx) Value { ctx.Invoke("C", "inc"); gort.Goexit(); return nil },
				incThenRead(3),
			},
		})
		returned = true
	}()
	if <-exited {
		t.Fatal("Run returned after a program called runtime.Goexit")
	}
	for i := 0; i < 2*maxIdleWorkers; i++ {
		res, err := Run(Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{incThenRead(2), incThenRead(2), incThenRead(2)},
			Scheduler:    NewRandom(int64(i)),
			VerifyReplay: true,
		})
		if err != nil {
			t.Fatalf("run %d after the Goexit: %v", i, err)
		}
		if !res.AllDone() {
			t.Fatalf("run %d after the Goexit: statuses %v", i, res.Status)
		}
	}
	checkNoLeak(t, before)
}

// TestConcurrentRunsShareThePool runs 64 Runs at once through par.ForEach.
// They draw workers from the one pool, each trace matches its sequential
// twin, and afterwards the pool is within its bound with no extra
// goroutine left. Run it under -race.
func TestConcurrentRunsShareThePool(t *testing.T) {
	const runs = 64
	cfg := func(i int) Config {
		return Config{
			Objects:      map[string]Object{"C": &testCounter{}},
			Programs:     []Program{incThenRead(3), incThenRead(4), incThenRead(5)},
			Scheduler:    NewRandom(int64(i)),
			VerifyReplay: true,
		}
	}
	want := make([]string, runs)
	for i := range want {
		res, err := Run(cfg(i))
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		want[i] = res.Trace.String()
	}
	before := busyGoroutines()
	got := make([]string, runs)
	err := par.ForEach(runs, runs, func(i int) error {
		res, err := Run(cfg(i))
		if err != nil {
			return err
		}
		got[i] = res.Trace.String()
		return nil
	})
	if err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d: concurrent trace differs from sequential\n%s\nvs\n%s", i, got[i], want[i])
		}
	}
	checkNoLeak(t, before)
}
