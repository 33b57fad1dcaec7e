package main

// metrics.go defines the benchmark's metrics and derives them from the
// measured repetitions and, for the traced run, from the tracer's tallies.

import (
	"math"
	"sort"
	"strings"
)

// metric is one measured value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef describes a metric: its unit, which direction is better and,
// for an end-to-end metric, the share of the parent's median by which it
// may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
	// only names the one workload the metric is defined on; "" means
	// every workload.
	only string
	// raw marks a time as the clocks read it, off the reference scale:
	// printed and compared, but too noisy on a shared host to gate on.
	raw bool
}

// endToEnd are the untraced run's metrics. BENCHMARK.json lists the ones
// defined on every workload that are not raw; TestBenchmarkJSONMatches
// keeps the two in step. Units are per repetition, the fixed job of one
// workload. The times are on the reference scale of calibrate.go.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25, "", false},
	{"cpu_s", "s", "lower", 0.25, "", false},
	{"setup_s", "s", "lower", 0.25, "", false},
	{"allocs_per_rep", "count", "lower", 0.02, "", false},
	{"max_rss_mb", "MiB", "lower", 0.20, "", false},
	{"raw_wall_s", "s", "lower", 0.25, "", true},
	{"raw_cpu_s", "s", "lower", 0.25, "", true},
	{"raw_setup_s", "s", "lower", 0.25, "", true},
	{"unit_p50_us", "us", "lower", 0.10, "sampled", true},
	{"unit_p99_us", "us", "lower", 0.15, "sampled", true},
}

// gated reports whether BENCHMARK.json lists an end-to-end metric.
func (d metricDef) gated() bool { return d.only == "" && !d.raw }

// perLayer are the traced run's metrics that BENCHMARK.json lists: those
// defined on every workload. Counts are per repetition; a count of 0 means
// the workload bypasses the layer. The traced run prints more, for the
// layers one workload exercises (see layerMetrics).
var perLayer = []metricDef{
	{name: "sim.runs", unit: "count", better: "lower"},
	{name: "sim.steps", unit: "count", better: "lower"},
	{name: "sim.handoff_ns_per_step", unit: "ns", better: "lower"},
	{name: "sim.handoff_allocs_per_step", unit: "count", better: "lower"},
	{name: "objects.apply_calls", unit: "count", better: "lower"},
	{name: "objects.apply_ns_per_call", unit: "ns", better: "lower"},
	{name: "objects.apply_share", unit: "ratio", better: "lower"},
	{name: "wrn.apply_ns_per_call", unit: "ns", better: "lower"},
	{name: "registers.apply_ns_per_call", unit: "ns", better: "lower"},
	{name: "registers.Register.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "wrn.Object.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "wrn.OneShot.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "consensus.Swap.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "consensus.TestAndSet.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "consensus.Cell.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "recoverable.Register.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "recoverable.WRNCore.apply_probe_ns", unit: "ns", better: "lower"},
	{name: "objects.sig_calls", unit: "count", better: "lower"},
	{name: "objects.statekey_calls", unit: "count", better: "lower"},
	{name: "objects.clone_calls", unit: "count", better: "lower"},
	{name: "recoverable.oncrash_calls", unit: "count", better: "lower"},
	{name: "sched.next_calls", unit: "count", better: "lower"},
	{name: "chaos.faults_calls", unit: "count", better: "lower"},
	{name: "chaos.crashes", unit: "count", better: "lower"},
	{name: "chaos.restarts", unit: "count", better: "lower"},
	{name: "modelcheck.calls", unit: "count", better: "lower"},
	{name: "modelcheck.replays", unit: "count", better: "lower"},
	{name: "modelcheck.executions", unit: "count", better: "higher"},
	{name: "modelcheck.configs", unit: "count", better: "higher"},
	{name: "modelcheck.steps_per_replay", unit: "ratio", better: "lower"},
	{name: "modelcheck.replays_per_execution", unit: "ratio", better: "lower"},
	{name: "modelcheck.memo_hit_ratio", unit: "ratio", better: "higher"},
	{name: "modelcheck.reduced_configs", unit: "count", better: "lower"},
	{name: "modelcheck.representatives", unit: "count", better: "lower"},
	{name: "modelcheck.states", unit: "count", better: "higher"},
	{name: "modelcheck.pairs", unit: "count", better: "higher"},
	{name: "linearize.check_calls", unit: "count", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// layerMetrics derives the per-layer metrics from the tallies of reps
// traced repetitions whose wall times sum to wallNS. Boundaries nest by
// construction: Apply, Next, Faults, Observe and OnCrash run inside
// sim.Run or an engine call, the checker runs inside visit, and factory,
// visit and AppendStateSig run inside an engine call, so a layer's self
// time is its tally minus those of the boundaries nested in it. Metrics
// whose denominator is zero on this workload are left out, except the
// perLayer ones, which read 0.
func layerMetrics(tr *tracer, reps int, wallNS float64) []metric {
	r := float64(reps)
	apply := tr.totalPrefix(layerApply)
	run, runAllocs := tr.total(layerRun), tr.total(layerRunAlloc)
	next, faults, observe := tr.total(layerNext), tr.total(layerFaults), tr.total(layerObserve)
	oncrash := tr.total(layerOnCrash)
	sig, key, clone := tr.total(layerSig), tr.total(layerStateKey), tr.total(layerClone)
	factory, visit, engine := tr.total(layerFactory), tr.total(layerVisit), tr.total(layerEngine)
	taskT, linT := tr.total(layerTasks), tr.total(layerLin)
	execs, configs := tr.total(countExecutions).n, tr.total(countConfigs).n
	hits, misses := tr.total(countHits).n, tr.total(countMisses).n
	pairs := tr.total(countPairs).n
	steps := apply.n

	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	per := func(n int64) float64 { return float64(n) / r }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	nsPer := func(name string, t tally) {
		if t.calls > 0 {
			add(name, float64(t.ns)/float64(t.calls), "ns")
		}
	}

	add("sim.runs", per(run.calls+factory.calls), "count")
	add("sim.steps", per(steps), "count")
	if run.calls > 0 && steps > 0 {
		self := run.ns - apply.ns - next.ns - faults.ns - observe.ns - oncrash.ns
		add("sim.self_ns_per_step", float64(self)/float64(steps), "ns")
		add("sim.allocs_per_step", float64(runAllocs.n)/float64(steps), "count")
		add("sim.trace_events", per(run.n), "count")
	}

	add("objects.apply_calls", per(apply.calls), "count")
	add("objects.apply_ns_per_call", ratio(float64(apply.ns), float64(apply.calls)), "ns")
	add("objects.apply_share", ratio(float64(apply.ns), wallNS), "ratio")
	for _, mod := range applyModules(tr) {
		nsPer(mod+".apply_ns_per_call", tr.totalPrefix(layerApply+mod+"."))
	}
	add("objects.sig_calls", per(sig.calls), "count")
	nsPer("objects.sig_ns_per_call", sig)
	if sig.calls > 0 {
		add("objects.sig_bytes_per_call", float64(sig.n)/float64(sig.calls), "count")
	}
	add("objects.statekey_calls", per(key.calls), "count")
	nsPer("objects.statekey_ns_per_call", key)
	add("objects.clone_calls", per(clone.calls), "count")
	nsPer("objects.clone_ns_per_call", clone)
	add("recoverable.oncrash_calls", per(oncrash.calls), "count")

	add("sched.next_calls", per(next.calls), "count")
	nsPer("sched.next_ns_per_call", next)
	add("chaos.faults_calls", per(faults.calls), "count")
	nsPer("chaos.faults_ns_per_call", faults)
	if faults.calls > 0 {
		add("chaos.fault_directives", per(faults.n), "count")
	}
	add("chaos.crashes", per(tr.total(layerCrash).calls), "count")
	add("chaos.restarts", per(tr.total(layerRestart).calls), "count")

	add("modelcheck.calls", per(engine.calls), "count")
	add("modelcheck.replays", per(factory.calls), "count")
	nsPer("modelcheck.factory_ns_per_call", factory)
	add("modelcheck.executions", per(execs), "count")
	add("modelcheck.configs", per(configs), "count")
	add("modelcheck.steps_per_replay", ratio(float64(steps), float64(factory.calls)), "ratio")
	add("modelcheck.replays_per_execution", ratio(float64(factory.calls), float64(execs)), "ratio")
	if factory.calls > 0 {
		self := engine.ns - factory.ns - apply.ns - visit.ns - next.ns - faults.ns - observe.ns -
			oncrash.ns - sig.ns - key.ns
		add("modelcheck.self_ns_per_replay", float64(self)/float64(factory.calls), "ns")
	}
	nsPer("modelcheck.visit_ns_per_call", visit)
	add("modelcheck.memo_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	add("modelcheck.reduced_configs", per(tr.total(countReducedConfigs).n), "count")
	add("modelcheck.representatives", per(tr.total(countRepresentatives).n), "count")
	add("modelcheck.states", per(tr.total(countStates).n), "count")
	add("modelcheck.pairs", per(pairs), "count")
	if pairs > 0 {
		self := engine.ns - apply.ns - clone.ns - key.ns
		add("modelcheck.table_self_ns_per_pair", float64(self)/float64(pairs), "ns")
	}

	nsPer("tasks.check_ns_per_call", taskT)
	add("linearize.check_calls", per(linT.calls), "count")
	nsPer("linearize.check_ns_per_call", linT)
	if linT.calls > 0 {
		add("linearize.ops_per_check", float64(linT.n)/float64(linT.calls), "count")
	}
	return out
}

// applyModules lists, sorted, the modules whose objects were applied.
func applyModules(tr *tracer) []string {
	seen := map[string]bool{}
	for k := range tr.agg {
		if rest, ok := strings.CutPrefix(k.layer, layerApply); ok {
			mod, _, _ := strings.Cut(rest, ".")
			seen[mod] = true
		}
	}
	mods := make([]string, 0, len(seen))
	for m := range seen {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	return mods
}

// median is the middle of xs, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// latencyHist counts latencies in logarithmic buckets 1% wide, so that
// percentiles take the same memory however many repetitions a run fits:
// a growing sample slice would make the peak RSS depend on machine speed.
type latencyHist struct {
	counts [2048]int64 // bucket i holds [1.01^i, 1.01^(i+1)) ns; up to ~0.7 s
	n      int64
}

func (h *latencyHist) add(ns float64) {
	i := 0
	if ns > 1 {
		i = min(int(math.Log(ns)/math.Log(1.01)), len(h.counts)-1)
	}
	h.counts[i]++
	h.n++
}

// percentile is the nearest-rank p-th percentile, read as the geometric
// middle of its bucket, so within 0.5%.
func (h *latencyHist) percentile(p float64) float64 {
	rank := max(int64(math.Ceil(p/100*float64(h.n))), 1)
	var seen int64
	for i, c := range h.counts {
		if seen += c; seen >= rank {
			return math.Pow(1.01, float64(i)+0.5)
		}
	}
	return math.NaN()
}
