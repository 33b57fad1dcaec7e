package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"detobj/internal/core"
)

// goldens maps each file under testdata/ to the invocation whose stdout
// it pins byte for byte. The seed sweeps are pinned at every worker
// count their tables must be independent of. A file is regenerated
// with `go run ./cmd/detobj <args> > cmd/detobj/testdata/<file>`, and
// committed only together with a CHANGES.md line that shows its diff
// and says why it moved.
var goldens = []struct{ file, args string }{
	{"sets-runs15-seed7.golden", "run -runs 15 -seed 7 -parallel 1 e1 e3 e4 e5 e9"},
	{"sets-runs15-seed7.golden", "run -runs 15 -seed 7 -parallel 2 e1 e3 e4 e5 e9"},
	{"sets-runs15-seed7.golden", "run -runs 15 -seed 7 -parallel 4 e1 e3 e4 e5 e9"},
	{"sets-runs15-seed7.golden", "run -runs 15 -seed 7 -parallel 8 e1 e3 e4 e5 e9"},
	{"sets-runs1000-seed1.golden", "run -runs 1000 -seed 1 e1 e3 e4 e5 e9"},
	{"verify.golden", "run e6 e11 e20"},
	{"verify-reduced.golden", "run e11r e4r"},
	{"substrates.golden", "run e12 e13 e14 e15 e16"},
	{"hierarchy.golden", "run e2 e7 e8 e10 e17 hasse"},
	{"chaos-runs20-v.golden", "run -runs 20 -v -parallel 1 chaos"},
	{"chaos-runs20-v.golden", "run -runs 20 -v -parallel 2 chaos"},
	{"chaos-runs20-v.golden", "run -runs 20 -v -parallel 4 chaos"},
	{"chaos-runs20-v.golden", "run -runs 20 -v -parallel 8 chaos"},
	{"trace-k3-seed3.golden", "trace -k 3 -seed 3"},
	{"trace-k5-seed9.golden", "trace -k 5 -seed 9"},
}

// TestGolden runs every pinned invocation through the real argument
// parser, one subtest per invocation named after its arguments. On a
// mismatch it reports the first differing line and the command that
// regenerates the file.
func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.args, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			if err := cli(strings.Fields(g.args), &b); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.file))
			if err != nil {
				t.Fatal(err)
			}
			if b.String() == string(want) {
				return
			}
			got, lines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
			i := 0
			for i < len(got) && i < len(lines) && got[i] == lines[i] {
				i++
			}
			t.Errorf("output differs from testdata/%s at line %d:\n got %q\nwant %q\nregenerate: go run ./cmd/detobj %s > cmd/detobj/testdata/%s",
				g.file, i+1, line(got, i), line(lines, i), g.args, g.file)
		})
	}
}

// line is lines[i], or a marker past the end.
func line(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<end of output>"
}

// runCLI runs one invocation and returns its stdout.
func runCLI(t *testing.T, args string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := cli(strings.Fields(args), &b)
	return b.String(), err
}

// TestRunSelection: run prints the named rows and only those, in the
// order they are named.
func TestRunSelection(t *testing.T) {
	for _, c := range []struct {
		args          string
		want, without []string
	}{
		{"run -runs 10 e1", []string{"E1  "}, []string{"E3"}},
		{"run e11", []string{"E11 "}, []string{"E6", "E11r"}},
		{"run e14", []string{"E14"}, []string{"E12"}},
		{"run -runs 10 e11 e1", []string{"E11 ", "E1  "}, []string{"E3", "E6", "E11r"}},
	} {
		t.Run(c.args, func(t *testing.T) {
			out, err := runCLI(t, c.args)
			if err != nil {
				t.Fatal(err)
			}
			at := 0
			for _, w := range c.want {
				i := strings.Index(out[at:], w)
				if i < 0 {
					t.Fatalf("missing %q after byte %d:\n%s", w, at, out)
				}
				at += i
			}
			for _, w := range c.without {
				if strings.Contains(out, w) {
					t.Errorf("also ran %s:\n%s", w, out)
				}
			}
		})
	}
}

// TestRunRejectsUnknownRows: a row the table does not have, the
// retired native scenario included, fails before any row prints.
func TestRunRejectsUnknownRows(t *testing.T) {
	for _, args := range []string{"run quantum", "run e2 native", "run e99", "run e2 e7 zzz", "run", "runs e1"} {
		t.Run(args, func(t *testing.T) {
			out, err := runCLI(t, args)
			if err == nil {
				t.Error("accepted")
			}
			if out != "" {
				t.Errorf("printed %q", out)
			}
		})
	}
}

// TestRunRejectsBadRuns: a sweep of no schedules would print vacuous
// rows such as 0/0 valid, and a negative one cannot size its slots.
func TestRunRejectsBadRuns(t *testing.T) {
	for _, args := range []string{"run -runs 0 e4", "run -runs -5 chaos", "run -runs 0 e12"} {
		t.Run(args, func(t *testing.T) {
			if out, err := runCLI(t, args); err == nil || out != "" {
				t.Errorf("accepted: %q", out)
			}
		})
	}
}

// TestRunReportsEveryFailure: a failing row does not stop the rows
// after it, every failure is listed, and the run fails.
func TestRunReportsEveryFailure(t *testing.T) {
	fails := func(w io.Writer, _ sweep) error {
		io.WriteString(w, "table\n")
		return errors.New("mismatch")
	}
	var ran []int
	passes := func(_ io.Writer, s sweep) error {
		ran = append(ran, s.runs)
		return nil
	}
	table := []row{{"bad", 0, 0, fails}, {"good", 7, 0, passes}, {"worse", 0, 0, fails}}
	var b strings.Builder
	err := run(&b, table, []string{"bad", "good", "worse"}, sweep{}, nil)
	if err == nil {
		t.Fatal("failed rows reported success")
	}
	want := "table\ntable\nFAIL bad: mismatch\nFAIL worse: mismatch\n"
	if b.String() != want {
		t.Errorf("output %q, want %q", b.String(), want)
	}
	if !slices.Equal(ran, []int{7}) {
		t.Errorf("the row after a failure ran with runs %v, want its default [7]", ran)
	}
}

// TestChaosSeedRange: a seeded row sweeps exactly seeds S..S+N-1.
func TestChaosSeedRange(t *testing.T) {
	out, err := runCLI(t, "run -seed 3 -runs 2 chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		f := strings.Fields(l)
		if l == "chaos: 2 seeds swept clean" {
			continue
		}
		if len(f) < 3 || f[1] != "seed" || f[2] != "3" && f[2] != "4" {
			t.Errorf("line outside seeds 3 and 4: %q", l)
		}
	}
	for _, want := range []string{"sim seed 3 crash-during-op", "sim seed 4 composed", "restart seed 3 crash-restart", "restart seed 4 control: plain WRN broken"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestChaosSweep: the non-verbose sweep runs every adversary and the
// negative control, and prints no report.
func TestChaosSweep(t *testing.T) {
	out, err := runCLI(t, "run -runs 5 chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"crash-during-op", "crash-recovery", "stall", "adaptive", "composed",
		"crash-restart", "repeated-restart", "adaptive-restart",
		"control: plain WRN broken",
		"5 seeds swept clean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 5*(5+3+1)+1 {
		t.Errorf("%d lines, want one per adversary and control per seed plus the summary:\n%s", n, out)
	}
}

// TestE1NoViolations parses the E1 table and asserts the violations column
// is all zeros and max-distinct stays within the bound.
func TestE1NoViolations(t *testing.T) {
	out, err := runCLI(t, "run -runs 50 -seed 3 e1")
	if err != nil {
		t.Fatal(err)
	}
	dataRows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 6 || fields[0] == "k" {
			continue
		}
		dataRows++
		if fields[5] != "0" {
			t.Errorf("violations in row: %s", line)
		}
		if fields[3] > fields[4] {
			t.Errorf("max-distinct exceeds bound: %s", line)
		}
	}
	if dataRows != 6 {
		t.Errorf("parsed %d data rows, want 6 (k = 3..8)", dataRows)
	}
}

func TestPickIDsDistinct(t *testing.T) {
	ids := pickIDs(4, 32)
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= 32 || seen[id] {
			t.Fatalf("bad ids %v", ids)
		}
		seen[id] = true
	}
}

// TestSubstratesValid: at 20 runs every E12 and E15 run is valid, the
// full E13 crash sweep terminates, and E14 reports no violation.
func TestSubstratesValid(t *testing.T) {
	out, err := runCLI(t, "run -runs 20 e12 e13 e14 e15 e16")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"E12", "E13", "E14", "E15", "E16", "snapshot", "renaming", "20/20", "61/61"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	e14 := out[strings.Index(out, "E14"):strings.Index(out, "E15")]
	for _, line := range strings.Split(e14, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && fields[0] != "n" && fields[2] != "0" {
			t.Errorf("E14 violations in row: %s", line)
		}
	}
}

// TestHierarchySeparates: every E10 witness separates, n = 2..6 by
// k = 1..4.
func TestHierarchySeparates(t *testing.T) {
	out, err := runCLI(t, "run e10")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 8 || strings.Trim(fields[0], "0123456789") != "" {
			continue
		}
		rows++
		if fields[len(fields)-1] != "true" {
			t.Errorf("separation witness failed: %s", line)
		}
	}
	if rows != 20 {
		t.Errorf("parsed %d E10 rows, want 20", rows)
	}
}

// TestE8MatrixShape: the hierarchy table is a strict total order rendered
// with > above the diagonal and < below.
func TestE8MatrixShape(t *testing.T) {
	out, err := runCLI(t, "run e8")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, ">") || !strings.Contains(out, "<") || !strings.Contains(out, "=") {
		t.Errorf("matrix symbols missing:\n%s", out)
	}
}

func TestSymbol(t *testing.T) {
	cases := map[core.Ordering]string{
		core.Stronger:     ">",
		core.Weaker:       "<",
		core.Equivalent:   "=",
		core.Incomparable: "?",
	}
	for o, want := range cases {
		if got := symbol(o); got != want {
			t.Errorf("symbol(%v) = %q, want %q", o, got, want)
		}
	}
}

// TestDocsNameOnlyTableRows: every `detobj run` invocation in the docs,
// the Makefile and CI names only rows the table has.
func TestDocsNameOnlyTableRows(t *testing.T) {
	invocation := regexp.MustCompile("detobj run([^`\n]*)")
	name := regexp.MustCompile(`^[a-z0-9]+$`)
	for _, file := range []string{"README.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		found := 0
		for _, m := range invocation.FindAllStringSubmatch(string(data), -1) {
			found++
			fields := strings.Fields(m[1])
			for i := 0; i < len(fields); i++ {
				switch f := fields[i]; {
				case f == "-v":
				case strings.HasPrefix(f, "-"):
					i++ // the flag's value
				case name.MatchString(f):
					if f != "all" && !slices.ContainsFunc(rows, func(r row) bool { return r.name == f }) {
						t.Errorf("%s: %q names unknown row %q", file, "detobj run"+m[1], f)
					}
				default:
					i = len(fields) // a placeholder, redirection or prose ends the rows
				}
			}
		}
		if found == 0 {
			t.Errorf("%s has no detobj run invocation", file)
		}
	}
}

func TestRecordAndCheckRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var buf bytes.Buffer
		if err := recordTrace(&buf, 3, seed); err != nil {
			t.Fatalf("seed %d: record: %v", seed, err)
		}
		var verdict strings.Builder
		if err := checkTrace(&verdict, &buf); err != nil || verdict.String() != "linearizable\n" {
			t.Fatalf("seed %d: verdict %q, err %v", seed, verdict.String(), err)
		}
	}
}

// TestRecordRejectsBadK: Algorithm 5 needs k >= 2, and a smaller k must
// be an error rather than a panic inside the construction.
func TestRecordRejectsBadK(t *testing.T) {
	for _, k := range []int{-1, 0, 1} {
		out, err := runCLI(t, "trace -k "+strconv.Itoa(k))
		if err == nil {
			t.Errorf("-k %d accepted", k)
		}
		if out != "" {
			t.Errorf("-k %d wrote %q", k, out)
		}
	}
}

func TestRecordLargerK(t *testing.T) {
	var buf bytes.Buffer
	if err := recordTrace(&buf, 5, 9); err != nil {
		t.Fatalf("record: %v", err)
	}
	var verdict strings.Builder
	if err := checkTrace(&verdict, &buf); err != nil || verdict.String() != "linearizable\n" {
		t.Fatalf("verdict %q err %v", verdict.String(), err)
	}
}

func TestCheckRejectsGarbage(t *testing.T) {
	if err := checkTrace(io.Discard, strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if err := checkTrace(io.Discard, strings.NewReader(`{"k":1,"events":[]}`)); err == nil {
		t.Error("invalid arity accepted")
	}
}

// tampered claims a read of a value that was never written: it cannot
// linearize.
const tampered = `{
  "k": 3,
  "object": "LW",
  "events": [
    {"seq":0,"kind":"call","proc":0,"object":"LW","op":"WRN","index":0,"value":"v0"},
    {"seq":1,"kind":"return","proc":0,"object":"LW","op":"WRN","out":"ghost"}
  ]
}`

func TestCheckDetectsTamperedTrace(t *testing.T) {
	var verdict strings.Builder
	err := checkTrace(&verdict, strings.NewReader(tampered))
	if !errors.Is(err, errNotLinearizable) || verdict.String() != "NOT linearizable\n" {
		t.Errorf("verdict %q, err %v; want NOT linearizable", verdict.String(), err)
	}
}

// TestCheckExitCodes: check exits 2 on a trace that does not linearize
// and 1 on malformed input, through the real argument parser.
func TestCheckExitCodes(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		trace, out string
		code       int
	}{
		{tampered, "NOT linearizable\n", 2},
		{"not json", "", 1},
		{"", "", 1},
	} {
		path := filepath.Join(dir, "trace.json")
		if err := os.WriteFile(path, []byte(c.trace), 0o666); err != nil {
			t.Fatal(err)
		}
		out, err := runCLI(t, "check "+path)
		if err == nil || exitCode(err) != c.code || out != c.out {
			t.Errorf("check %q: exit %d (%v) printing %q, want exit %d printing %q", c.trace, exitCode(err), err, out, c.code, c.out)
		}
	}
	var b strings.Builder
	if err := cli([]string{"check", filepath.Join(dir, "missing.json")}, &b); err == nil || exitCode(err) != 1 {
		t.Errorf("missing file: %v", err)
	}
}

func TestCheckOrphanReturnRejected(t *testing.T) {
	orphan := `{"k":3,"object":"LW","events":[
	  {"seq":0,"kind":"return","proc":0,"object":"LW","op":"WRN","out":"x"}
	]}`
	if err := checkTrace(io.Discard, strings.NewReader(orphan)); err == nil {
		t.Error("orphan return accepted")
	}
}

func TestCheckCallWithoutIndexRejected(t *testing.T) {
	for _, index := range []string{``, `"index":-1,`, `"index":3,`} {
		bad := `{"k":3,"object":"LW","events":[
		  {"seq":0,"kind":"call","proc":0,"object":"LW","op":"WRN",` + index + `"value":"v"}
		]}`
		if err := checkTrace(io.Discard, strings.NewReader(bad)); err == nil {
			t.Errorf("call with %q accepted", index)
		}
	}
}

// TestCheckRejectsOtherOps: the file format records WRN calls only; a
// call to any other operation is malformed, not replayed as a WRN.
func TestCheckRejectsOtherOps(t *testing.T) {
	bad := `{"k":3,"object":"LW","events":[
	  {"seq":0,"kind":"call","proc":0,"object":"LW","op":"swap","index":0,"value":"v"},
	  {"seq":1,"kind":"return","proc":0,"object":"LW","op":"swap","out":"⊥"}
	]}`
	if err := checkTrace(io.Discard, strings.NewReader(bad)); err == nil {
		t.Error("swap call accepted")
	}
}
