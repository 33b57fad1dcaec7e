// Command traces records executions of the Algorithm 5 implementation as
// JSON trace files and re-checks recorded traces for linearizability
// against the 1sWRN_k sequential specification — the artifact format for
// experiment E5.
//
// Usage:
//
//	traces -record [-k K] [-seed S] [-o trace.json]   # run and record
//	traces -check trace.json                          # verify a recording
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"detobj/internal/linearize"
	"detobj/internal/sim"
	"detobj/internal/wrn"
)

func main() {
	record := flag.Bool("record", false, "run Algorithm 5 and record a trace")
	check := flag.String("check", "", "trace file to verify")
	k := flag.Int("k", 3, "WRN arity, at least 2")
	seed := flag.Int64("seed", 1, "scheduler seed")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	switch {
	case *record:
		// Record first, so that a failed run leaves no -o file behind.
		var buf bytes.Buffer
		if err := recordTrace(&buf, *k, *seed); err != nil {
			fatal(err)
		}
		var err error
		if *out == "" {
			_, err = os.Stdout.Write(buf.Bytes())
		} else {
			err = os.WriteFile(*out, buf.Bytes(), 0o666)
		}
		if err != nil {
			fatal(err)
		}
	case *check != "":
		f, err := os.Open(*check)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		verdict, err := checkTrace(f)
		if err != nil {
			fatal(err)
		}
		fmt.Println(verdict)
		if verdict != "linearizable" {
			os.Exit(2)
		}
	default:
		fatal(errors.New("specify -record or -check FILE"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traces:", err)
	os.Exit(1)
}

// fileTrace is the on-disk trace format. Values are rendered as strings so
// the format is stable across JSON round-trips (⊥ is the string "⊥").
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
		i := i
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

// checkTrace loads a recorded trace and reports "linearizable" or
// "NOT linearizable".
func checkTrace(r io.Reader) (string, error) {
	var ft fileTrace
	if err := json.NewDecoder(r).Decode(&ft); err != nil {
		return "", fmt.Errorf("decode: %w", err)
	}
	if ft.K < 2 {
		return "", fmt.Errorf("invalid arity %d", ft.K)
	}
	ops, err := opsFromFile(ft)
	if err != nil {
		return "", err
	}
	if linearize.Check(stringSpec(ft.K), ops).OK {
		return "linearizable", nil
	}
	return "NOT linearizable", nil
}

// opsFromFile pairs call/return events per process into operations.
func opsFromFile(ft fileTrace) ([]linearize.Op, error) {
	open := map[int]*linearize.Op{}
	var done []linearize.Op
	for _, e := range ft.Events {
		switch e.Kind {
		case "call":
			if e.Index == nil {
				return nil, fmt.Errorf("call event %d without index", e.Seq)
			}
			open[e.Proc] = &linearize.Op{
				Proc: e.Proc,
				Name: e.Op,
				Args: []sim.Value{*e.Index, e.Value},
				Call: e.Seq,
			}
		case "return":
			op, ok := open[e.Proc]
			if !ok {
				return nil, fmt.Errorf("return event %d without open call", e.Seq)
			}
			op.Return = e.Seq
			op.Out = e.Out
			done = append(done, *op)
			delete(open, e.Proc)
		}
	}
	return done, nil
}

// stringSpec is the 1sWRN_k sequential specification over string-rendered
// values, matching the file format ("⊥" is bottom).
func stringSpec(k int) linearize.Spec {
	return linearize.Spec{
		Init: func() any {
			cells := make([]string, k)
			for i := range cells {
				cells[i] = "⊥"
			}
			return cells
		},
		Apply: func(state any, name string, args []sim.Value) (any, sim.Value) {
			cells := state.([]string)
			next := make([]string, k)
			copy(next, cells)
			i := args[0].(int)
			next[i] = args[1].(string)
			return next, next[(i+1)%k]
		},
		Key: func(state any) string { return fmt.Sprint(state) },
	}
}
