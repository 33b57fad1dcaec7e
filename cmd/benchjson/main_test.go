package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: detobj
cpu: Example CPU
BenchmarkParExploreE4/k=3procs=4/seq-8   2	500000000 ns/op	300000000 B/op	4000000 allocs/op
BenchmarkParExploreE4/k=3procs=4/red-8   100	2500000 ns/op	500000 B/op	16000 allocs/op
BenchmarkParValencyE11/swap/seq-8        1000	200000 ns/op	88000 B/op	1200 allocs/op
PASS
`

func TestParsePairsReductions(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3", len(rep.Benchmarks))
	}
	if rep.Benchmarks[0].Name != "BenchmarkParExploreE4/k=3procs=4/seq" {
		t.Errorf("proc suffix not stripped: %q", rep.Benchmarks[0].Name)
	}
	// Only the E4 benchmark has a /red twin.
	if len(rep.Reductions) != 1 {
		t.Fatalf("reductions = %d, want 1", len(rep.Reductions))
	}
	r := rep.Reductions[0]
	if r.Pair != "BenchmarkParExploreE4/k=3procs=4" {
		t.Errorf("reduction pair = %q", r.Pair)
	}
	if r.Speedup != 200.0 {
		t.Errorf("reduction speedup = %v, want 200", r.Speedup)
	}
	if r.SeqAllocs != 4000000 || r.RedAllocs != 16000 {
		t.Errorf("allocs = %d/%d", r.SeqAllocs, r.RedAllocs)
	}
	if r.AllocRatio != 250.0 {
		t.Errorf("alloc ratio = %v, want 250", r.AllocRatio)
	}
}

// TestParseKeepsColumnsAfterCustomMetric: a custom metric between ns/op
// and B/op (as BenchmarkSimThroughput reports ns/step) must not cost the
// line its B/op and allocs/op.
func TestParseKeepsColumnsAfterCustomMetric(t *testing.T) {
	const line = "BenchmarkSimThroughput-8   \t1000\t   1234567 ns/op\t       301.2 ns/step\t    1234 B/op\t      16 allocs/op\n"
	rep, err := parse(strings.NewReader(line))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rep.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %d, want 1", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkSimThroughput" || b.Iterations != 1000 || b.NsPerOp != 1234567 {
		t.Errorf("benchmark = %+v", b)
	}
	if b.BytesPerOp != 1234 || b.AllocsPerOp != 16 {
		t.Errorf("B/op, allocs/op = %d, %d, want 1234, 16", b.BytesPerOp, b.AllocsPerOp)
	}
	if got := b.Metrics["ns/step"]; got != 301.2 || len(b.Metrics) != 1 {
		t.Errorf("metrics = %v, want ns/step 301.2", b.Metrics)
	}
}

// TestParseSkipsMalformedLines: a line that names a benchmark but has
// no ns/op column, or a column that is not a number, is not a result.
func TestParseSkipsMalformedLines(t *testing.T) {
	const in = "BenchmarkA-8   \t10\t 5 allocs/op\n" +
		"BenchmarkB-8   \t10\t many ns/op\n" +
		"BenchmarkC-8   \t10\t 7 ns/op 3\n" +
		"BenchmarkD-8   \t10\t 9 ns/op\n"
	rep, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkD" || rep.Benchmarks[0].Metrics != nil {
		t.Errorf("benchmarks = %+v, want only BenchmarkD", rep.Benchmarks)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("no benchmarks here\n")); err == nil {
		t.Error("empty input accepted")
	}
}
