// Command bench is detobj's benchmark: the time to reach the paper's
// verdicts on four fixed verification jobs, plus a traced run that breaks
// that time down by layer. README.md describes the workloads, the metrics
// and what each layer metric should move. Run it from the repository root
// through run.sh, which builds it from the checkout's source:
//
//	bash bench/run.sh --workload sampled --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare .bench_build/runs-a .bench_build/runs-b
//
// One invocation sets the workload up five times (building its inputs
// and running one untimed warm-up repetition each time), then repeats the
// job, one repetition after another, for --seconds. A reference kernel
// (calibrate.go), timed between set-ups and repetitions, puts every time
// on one scale, so that a host running slower shows less. It prints every
// metric as "name value unit" and ends with one JSON line holding the
// verdict and the metrics: the end-to-end ones with --trace 0, the
// per-layer ones with --trace 1. It also writes a run record with the
// per-repetition samples under --out, which --compare reads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times one invocation sets up; setup_s is the
// median.
const setupRounds = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "how long to repeat the job after set-up")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "runs"), "directory for run records and spans")
	compareMode := fs.Bool("compare", false, "compare two sets of run records: --compare A B, each a record file or a directory of them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two record sets")
			return 2
		}
		ok, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1")
		return 2
	}
	rec, err := measure(*workload, *seed, *seconds, *trace == 1, *out, full, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := report(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// envInfo records the machine and toolchain a run measured on.
type envInfo struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// record is one invocation's outcome, written as JSON under --out.
type record struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   int       `json:"seconds"`
	Traced    bool      `json:"traced"`
	Env       envInfo   `json:"env"`
	SetupS    []float64 `json:"setup_s"` // on the reference scale (calibrate.go)
	WallS     []float64 `json:"wall_s"`
	CPUS      []float64 `json:"cpu_s"`
	RawSetupS []float64 `json:"raw_setup_s"` // as the clocks read them
	RawWallS  []float64 `json:"raw_wall_s"`
	RawCPUS   []float64 `json:"raw_cpu_s"`
	RefS      []float64 `json:"ref_s"` // the reference kernel's wall time after each set-up and repetition
	Allocs    []float64 `json:"allocs"`
	TracedS   []float64 `json:"traced_wall_s,omitempty"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   []metric  `json:"metrics"`
}

// repSample is one repetition's measurements.
type repSample struct {
	wall, cpu, allocs float64
}

// runner repeats one workload's job and keeps the verdict accounting.
type runner struct {
	units     []unit
	unitNS    []float64 // per-unit latency of the last repetition
	want      digest    // every repetition must reach the warm-up's verdicts
	haveWant  bool
	attempted int
	failed    int
	stderr    io.Writer
}

// rep runs every unit once, in order, and checks the verdicts.
func (r *runner) rep(tr *tracer) repSample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	sp := tr.begin("repetition")
	d := newDigest()
	for i, u := range r.units {
		us := tr.begin(u.name)
		u0 := time.Now()
		ud, err := u.run(tr)
		r.unitNS[i] = float64(time.Since(u0).Nanoseconds())
		tr.end(us)
		r.attempted++
		if err != nil {
			r.fail(fmt.Errorf("%s: %w", u.name, err))
			d = d.str(err.Error())
			continue
		}
		d = d.int(int(ud))
	}
	tr.end(sp)
	s := repSample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
	runtime.ReadMemStats(&m1)
	s.allocs = float64(m1.Mallocs - m0.Mallocs)
	if !r.haveWant {
		r.want, r.haveWant = d, true
	} else if d != r.want {
		r.fail(errors.New("a repetition reached different verdicts or counts than the first"))
	}
	return s
}

// fail counts one failed unit and reports the first few on stderr.
func (r *runner) fail(err error) {
	r.failed++
	if r.failed <= 5 {
		fmt.Fprintln(r.stderr, "bench: FAIL", err)
	}
}

// measure sets the workload up and repeats its job for the given seconds.
func measure(workload string, seed int64, seconds int, traced bool, outDir string, sz sizes, stderr io.Writer) (*record, error) {
	// Every job is sequential. With a second P the simulator's goroutine
	// handoffs cross CPUs, which measured slower and roughly twice as
	// noisy from run to run on a shared 2-CPU machine.
	runtime.GOMAXPROCS(1)
	rec := &record{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced, Env: environment()}
	r := &runner{stderr: stderr}
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	// scale puts a raw time on the reference scale, by the mean of the
	// kernel's timings just before and just after it.
	scale := func(raw float64, before, after float64) float64 {
		return raw * refNominalS / ((before + after) / 2)
	}
	before, err := ref.measure()
	if err != nil {
		return nil, err
	}
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		units, err := buildJob(workload, seed, sz)
		if err != nil {
			return nil, err
		}
		r.units, r.unitNS = units, make([]float64, len(units))
		r.rep(nil)
		raw := time.Since(t0).Seconds()
		after, err := ref.measure()
		if err != nil {
			return nil, err
		}
		rec.RawSetupS = append(rec.RawSetupS, raw)
		rec.SetupS = append(rec.SetupS, scale(raw, before.wall, after.wall))
		rec.RefS = append(rec.RefS, after.wall)
		before = after
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var lat latencyHist
	var tracedNS float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(rec.WallS) == 0 || time.Now().Before(deadline) {
		s := r.rep(nil)
		after, err := ref.measure()
		if err != nil {
			return nil, err
		}
		rec.RawWallS = append(rec.RawWallS, s.wall)
		rec.RawCPUS = append(rec.RawCPUS, s.cpu)
		rec.WallS = append(rec.WallS, scale(s.wall, before.wall, after.wall))
		rec.CPUS = append(rec.CPUS, scale(s.cpu, before.cpu, after.cpu))
		rec.RefS = append(rec.RefS, after.wall)
		before = after
		rec.Allocs = append(rec.Allocs, s.allocs)
		if workload == "sampled" {
			for _, ns := range r.unitNS {
				lat.add(ns)
			}
		}
		if traced {
			t := r.rep(tr)
			rec.TracedS = append(rec.TracedS, t.wall)
			tracedNS += t.wall * 1e9
		}
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	add := func(name string, v float64, unit string) { rec.Metrics = append(rec.Metrics, metric{name, v, unit}) }
	add("wall_s", median(rec.WallS), "s")
	add("cpu_s", median(rec.CPUS), "s")
	add("setup_s", median(rec.SetupS), "s")
	add("allocs_per_rep", median(rec.Allocs), "count")
	add("max_rss_mb", rss, "MiB")
	add("raw_wall_s", median(rec.RawWallS), "s")
	add("raw_cpu_s", median(rec.RawCPUS), "s")
	add("raw_setup_s", median(rec.RawSetupS), "s")
	add("ref_s", median(rec.RefS), "s")
	if workload == "sampled" {
		add("unit_p50_us", lat.percentile(50)/1e3, "us")
		add("unit_p99_us", lat.percentile(99)/1e3, "us")
		add("unit_samples", float64(lat.n), "count")
	}
	add("repetitions", float64(len(rec.WallS)), "count")
	rec.Attempted, rec.Failed = r.attempted, r.failed
	add("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")

	if traced {
		probes, err := probeMetrics()
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		rec.Metrics = append(rec.Metrics, layerMetrics(tr, len(rec.TracedS), tracedNS)...)
		rec.Metrics = append(rec.Metrics, probes...)
		add("trace.overhead_ratio", median(rec.TracedS)/median(rec.RawWallS)-1, "ratio")
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, btoi(traced)))
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return nil, err
	}
	if traced {
		if err := tr.writeFile(base + ".spans"); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// report prints every metric as "name value unit", then the one-line JSON
// result: the end-to-end metrics of an untraced run, or the per-layer
// metrics BENCHMARK.json lists of a traced one.
func report(w io.Writer, rec *record) error {
	byName := map[string]metric{}
	for _, m := range rec.Metrics {
		fmt.Fprintf(w, "%s %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		byName[m.Name] = m
	}
	defs := perLayer
	if !rec.Traced {
		defs = nil
		for _, d := range endToEnd {
			if d.gated() {
				defs = append(defs, d)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]value{}}
	for _, d := range defs {
		m, ok := byName[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured on %s", d.name, rec.Workload)
		}
		result.Metrics[d.name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMiB is the process's peak resident set size. On Linux it comes
// from VmHWM in /proc/self/status: getrusage's ru_maxrss also counts the
// peak of the image that exec'd this one (the launcher script's shell),
// which can hide the benchmark's own peak.
func peakRSSMiB() (float64, error) {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err != nil {
					return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
				}
				return kb / 1024, nil
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// environment describes the machine; the CPU model comes from
// /proc/cpuinfo where there is one.
func environment() envInfo {
	e := envInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}
