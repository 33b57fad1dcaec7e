// Command benchjson converts `go test -bench` output (read from stdin)
// into a machine-readable JSON report. Benchmarks that carry a /seq
// sub-benchmark and a symmetry-reduced /red twin are paired into a
// reductions section recording the speedup and the allocation ratio of
// the reduced engine over the exhaustive one.
//
// The report records goos/goarch/cpu from the bench header and
// numcpu/gomaxprocs from this process, so a committed BENCH_N.json is
// honest about the hardware it was measured on.
//
// Usage:
//
//	go test -bench=. -benchmem . | go run ./cmd/benchjson -o BENCH_6.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. Metrics holds the columns other
// than ns/op, B/op and allocs/op, keyed by unit (custom metrics such as
// BenchmarkSimThroughput's steps/op).
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Reduction pairs a /seq sub-benchmark with its symmetry-reduced /red
// twin. The interesting figure is the allocation collapse as much as the
// time: the reduced engine visits one representative per orbit.
type Reduction struct {
	Pair       string  `json:"pair"`
	SeqNs      float64 `json:"seq_ns_per_op"`
	RedNs      float64 `json:"red_ns_per_op"`
	Speedup    float64 `json:"speedup"`
	SeqAllocs  int64   `json:"seq_allocs_per_op"`
	RedAllocs  int64   `json:"red_allocs_per_op"`
	AllocRatio float64 `json:"alloc_ratio"`
}

// Report is the BENCH_N.json document.
type Report struct {
	Schema     string      `json:"schema"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	NumCPU     int         `json:"numcpu"`
	Gomaxprocs int         `json:"gomaxprocs"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Reductions []Reduction `json:"reductions,omitempty"`
}

// benchLine matches a result line's name and iteration count, e.g.
//
//	BenchmarkSimThroughput-8   100   1207757 ns/op   4096 steps/op   6392 B/op   16 allocs/op
//
// The rest of the line is `value unit` columns, which parseMetrics reads
// in whatever order they come: custom metrics (b.ReportMetric) sit
// between ns/op and B/op.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

func main() {
	out := flag.String("o", "BENCH_6.json", "output file (- for stdout)")
	flag.Parse()
	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data := buf.Bytes()
	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and builds the report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{
		Schema:     "detobj-bench/1",
		NumCPU:     runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := Benchmark{Name: stripProcSuffix(m[1])}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		if !parseMetrics(&b, m[3]) {
			continue
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	rep.Reductions = pairReductions(rep.Benchmarks)
	return rep, nil
}

// parseMetrics reads the `value unit` columns of a result line into b.
// It reports false, and the line is skipped, unless every column parses
// and ns/op is among them.
func parseMetrics(b *Benchmark, cols string) bool {
	f := strings.Fields(cols)
	if len(f) == 0 || len(f)%2 != 0 {
		return false
	}
	hasNs := false
	for i := 0; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp, hasNs = v, true
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return hasNs
}

// stripProcSuffix removes the trailing -GOMAXPROCS that `go test`
// appends to benchmark names (absent at GOMAXPROCS = 1).
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// pairReductions joins each .../seq benchmark with its .../red twin, in
// the order the seq side appeared.
func pairReductions(benches []Benchmark) []Reduction {
	byName := make(map[string]Benchmark, len(benches))
	for _, b := range benches {
		byName[b.Name] = b
	}
	var out []Reduction
	for _, b := range benches {
		if !strings.HasSuffix(b.Name, "/seq") {
			continue
		}
		pair := strings.TrimSuffix(b.Name, "/seq")
		red, ok := byName[pair+"/red"]
		if !ok || red.NsPerOp <= 0 {
			continue
		}
		r := Reduction{
			Pair:      pair,
			SeqNs:     b.NsPerOp,
			RedNs:     red.NsPerOp,
			Speedup:   math2(b.NsPerOp / red.NsPerOp),
			SeqAllocs: b.AllocsPerOp,
			RedAllocs: red.AllocsPerOp,
		}
		if red.AllocsPerOp > 0 {
			r.AllocRatio = math2(float64(b.AllocsPerOp) / float64(red.AllocsPerOp))
		}
		out = append(out, r)
	}
	return out
}

// math2 rounds to two decimals without pulling in math for one call.
func math2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
