// Command detobj regenerates the experiment tables E1–E20 (see
// EXPERIMENTS.md) and records and re-checks Algorithm 5 traces, E5's
// artifact format.
//
// Usage:
//
//	detobj run [-runs N] [-seed S] [-parallel P] [-v] <row>... | all
//	detobj trace [-k K] [-seed S]
//	detobj check FILE
//
// run prints the named rows, all for the whole table, in the order
// named. A seeded row sweeps seeds S..S+N−1 with one slot per seed, so
// its table is the same at every -parallel; a flag left unset takes the
// row's own default. Every row checks its table against the paper; run
// then prints "FAIL <row>: <err>" for each row that failed and exits 1.
// testdata/ pins the output byte for byte.
//
// trace writes the JSON logical-operation trace of one Algorithm 5 run
// with k processes under seed S. check re-checks such a file against
// 1sWRN_k and prints "linearizable" or "NOT linearizable", exiting 2 on
// the latter and 1 on malformed input.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"detobj/internal/linearize"
	"detobj/internal/par"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

// sweep is what a row reads of the command line: the seeds
// seed..seed+runs-1, the workers that sweep them, and whether the
// chaos row prints every report.
type sweep struct {
	runs    int
	seed    int64
	workers int
	verbose bool
}

// row is one table `detobj run` prints. runs and seed are its sweep
// defaults; a row that reads no seeds leaves them zero.
type row struct {
	name string
	runs int
	seed int64
	fn   func(w io.Writer, s sweep) error
}

// rows is the table, in the order `run all` prints it.
var rows = []row{
	{"e1", 1000, 1, expE1},
	{"e2", 0, 0, expE2},
	{"e3", 1000, 1, expE3},
	{"e4", 1000, 1, expE4},
	{"e5", 1000, 1, expE5},
	{"e6", 0, 0, expE6},
	{"e7", 0, 0, expE7},
	{"e8", 0, 0, expE8},
	{"e9", 1000, 1, expE9},
	{"e10", 0, 0, expE10},
	{"e11", 0, 0, expE11},
	{"e11r", 0, 0, expE11r},
	{"e4r", 0, 0, expE4r},
	{"e12", 200, 0, expE12},
	{"e13", 0, 0, expE13},
	{"e14", 0, 0, expE14},
	{"e15", 200, 0, expE15},
	{"e16", 0, 0, expE16},
	{"e17", 0, 0, expE17},
	{"hasse", 0, 0, expHasse},
	{"chaos", 20, 0, expChaos},
	{"e20", 0, 0, expE20},
}

const usage = `usage:
  detobj run [-runs N] [-seed S] [-parallel P] [-v] <row>... | all
  detobj trace [-k K] [-seed S]
  detobj check FILE`

// errNotLinearizable is check's verdict on a trace that does not
// linearize; main exits 2 on it.
var errNotLinearizable = errors.New("trace is not linearizable")

func main() {
	if err := cli(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "detobj:", err)
		os.Exit(exitCode(err))
	}
}

// exitCode is the process status for cli's error.
func exitCode(err error) int {
	if errors.Is(err, errNotLinearizable) {
		return 2
	}
	return 1
}

// cli runs one invocation, args without the program name, writing what
// the command prints on stdout to w.
func cli(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	fs := flag.NewFlagSet("detobj", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	runs := fs.Int("runs", 0, "seeds per seeded row")
	seed := fs.Int64("seed", 1, "first seed")
	workers := fs.Int("parallel", 0, "worker goroutines for seed sweeps (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print the chaos report of every run")
	k := fs.Int("k", 3, "WRN arity of the recorded run")
	if err := fs.Parse(args[1:]); err != nil {
		return fmt.Errorf("%w\n%s", err, usage)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch verb := args[0]; {
	case verb == "trace" && fs.NArg() == 0:
		return recordTrace(w, *k, *seed)
	case verb == "check" && fs.NArg() == 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		return checkTrace(w, f)
	case verb != "run" || fs.NArg() == 0:
		return errors.New(usage)
	case set["runs"] && *runs < 1:
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	return run(w, rows, fs.Args(), sweep{*runs, *seed, par.Normalize(*workers, -1), *verbose}, set)
}

// run prints the named rows of table in order, all standing for the
// whole table. A flag that set names overrides every row's own default
// for it. An unknown name is rejected before any row runs, and a failed
// row does not stop the ones after it: every failure is listed at the
// end.
func run(w io.Writer, table []row, names []string, flags sweep, set map[string]bool) error {
	var todo []row
	for _, name := range names {
		i := slices.IndexFunc(table, func(r row) bool { return r.name == name })
		switch {
		case name == "all":
			todo = append(todo, table...)
		case i >= 0:
			todo = append(todo, table[i])
		default:
			known := make([]string, len(table))
			for j, r := range table {
				known[j] = r.name
			}
			return fmt.Errorf("unknown row %q; rows: %s or all", name, strings.Join(known, " "))
		}
	}
	var failures []string
	for _, r := range todo {
		s := flags
		if !set["runs"] {
			s.runs = r.runs
		}
		if !set["seed"] {
			s.seed = r.seed
		}
		if err := r.fn(w, s); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", r.name, err))
		}
	}
	for _, f := range failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d row(s) failed", len(failures))
	}
	return nil
}

// fileTrace is the on-disk trace format. Values are rendered as strings so
// the format is stable across JSON round-trips (⊥ is the string "⊥", and
// checkTrace decodes it back to wrn.Bottom).
type fileTrace struct {
	K      int         `json:"k"`
	Object string      `json:"object"`
	Seed   int64       `json:"seed"`
	Events []fileEvent `json:"events"`
}

type fileEvent struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Proc   int    `json:"proc"`
	Object string `json:"object"`
	Op     string `json:"op"`
	Index  *int   `json:"index,omitempty"`
	Value  string `json:"value,omitempty"`
	Out    string `json:"out,omitempty"`
}

// recordTrace runs one Algorithm 5 execution with k processes and writes
// the logical-operation trace as JSON.
func recordTrace(w io.Writer, k int, seed int64) error {
	if k < 2 {
		return fmt.Errorf("-k must be at least 2, got %d", k)
	}
	objects := map[string]sim.Object{}
	impl := wrn.NewImpl(objects, "LW", k)
	progs := make([]sim.Program, k)
	for i := 0; i < k; i++ {
		progs[i] = func(ctx *sim.Ctx) sim.Value {
			return impl.TracedWRN(ctx, i, fmt.Sprintf("v%d", i))
		}
	}
	res, err := sim.Run(sim.Config{
		Objects:   objects,
		Programs:  progs,
		Scheduler: sim.NewRandom(seed),
		Seed:      seed,
		MaxSteps:  1 << 18,
	})
	if err != nil {
		return err
	}
	ft := fileTrace{K: k, Object: impl.Name(), Seed: seed}
	for _, e := range res.Trace.Events {
		if e.Object != impl.Name() {
			continue
		}
		fe := fileEvent{
			Seq:    e.Seq,
			Kind:   e.Kind.String(),
			Proc:   e.Proc,
			Object: e.Object,
			Op:     e.Op,
		}
		if e.Kind == sim.EventCall {
			idx := e.Args[0].(int)
			fe.Index = &idx
			fe.Value = fmt.Sprint(e.Args[1])
		}
		if e.Kind == sim.EventReturn {
			fe.Out = fmt.Sprint(e.Out)
		}
		ft.Events = append(ft.Events, fe)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ft)
}

// checkTrace loads a recorded trace and prints "linearizable" or "NOT
// linearizable"; a trace that does not linearize is errNotLinearizable.
func checkTrace(w io.Writer, r io.Reader) error {
	var ft fileTrace
	if err := json.NewDecoder(r).Decode(&ft); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if ft.K < 2 {
		return fmt.Errorf("invalid arity %d", ft.K)
	}
	ops, err := opsFromFile(ft)
	if err != nil {
		return err
	}
	if !linearize.Check(wrn.Spec(ft.K), ops).OK {
		fmt.Fprintln(w, "NOT linearizable")
		return errNotLinearizable
	}
	fmt.Fprintln(w, "linearizable")
	return nil
}

// opsFromFile pairs call/return events per process into operations,
// rejecting a call that is not a WRN at an index below the arity.
func opsFromFile(ft fileTrace) ([]linearize.Op, error) {
	open := map[int]*linearize.Op{}
	var done []linearize.Op
	for _, e := range ft.Events {
		switch e.Kind {
		case "call":
			if e.Op != "WRN" {
				return nil, fmt.Errorf("call event %d is %q, not WRN", e.Seq, e.Op)
			}
			if e.Index == nil || *e.Index < 0 || *e.Index >= ft.K {
				return nil, fmt.Errorf("call event %d without an index in [0,%d)", e.Seq, ft.K)
			}
			open[e.Proc] = &linearize.Op{
				Proc: e.Proc,
				Name: e.Op,
				Args: []sim.Value{*e.Index, decode(e.Value)},
				Call: e.Seq,
			}
		case "return":
			op, ok := open[e.Proc]
			if !ok {
				return nil, fmt.Errorf("return event %d without open call", e.Seq)
			}
			op.Return = e.Seq
			op.Out = decode(e.Out)
			done = append(done, *op)
			delete(open, e.Proc)
		}
	}
	return done, nil
}

// decode reads a rendered value back: "⊥" is wrn.Bottom.
func decode(v string) sim.Value {
	if v == "⊥" {
		return wrn.Bottom
	}
	return v
}
