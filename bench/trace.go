package main

// trace.go is the traced run's recorder. It sits entirely outside the
// program: spans are recorded only around what the benchmark itself calls
// (repetitions, units and engine calls), and the per-call boundaries of
// each layer (Apply, Next, Faults, AppendStateSig, factory and visit
// callbacks...) are tallied by the wrappers in wrap.go into per-(layer,
// parent span) count and nanosecond counters, so memory stays flat however
// many calls a repetition makes. Tracing inside the program (the
// simulator's handoff, the engine's replay loop) is not visible here; the
// engine's share is what remains of an engine span after its timed
// children.
//
// A nil *tracer is the untraced run: every method is a no-op and the
// wrappers hand the program its objects unchanged.

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval, in nanoseconds since the tracer's
// origin. Name and Parent index tracer.names; Parent is -1 at top level.
type span struct {
	Name, Parent int32
	Start, End   int64
}

// aggKey identifies one tally: a layer boundary and the name of the span
// open around it (-1 when none).
type aggKey struct {
	layer  string
	parent int32
}

// tally counts the calls across one boundary, the nanoseconds spent in
// them, and a boundary-specific quantity n (bytes appended, directives
// issued, sim steps taken, trace events recorded...).
type tally struct {
	calls, ns, n int64
}

type tracer struct {
	origin time.Time
	spans  []span
	open   int32 // index into spans of the innermost open span, -1 when none
	names  []string
	ids    map[string]int32
	agg    map[aggKey]*tally
	allocs []metrics.Sample
	// applyLayers caches the Apply tally name per object type.
	applyLayers map[reflect.Type]string
}

func newTracer() *tracer {
	return &tracer{
		origin:      time.Now(),
		open:        -1,
		ids:         map[string]int32{},
		agg:         map[aggKey]*tally{},
		applyLayers: map[reflect.Type]string{},
		allocs: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/tiny/allocs:objects"},
		},
	}
}

// clock returns the time since the tracer's origin, or 0 untraced.
func (t *tracer) clock() int64 {
	if t == nil {
		return 0
	}
	//detlint:allow injectionpurity the traced run's fault-injector wrapper reads the clock only to time the inner Faults call; the directives it returns are the inner injector's, untouched
	return int64(time.Since(t.origin))
}

func (t *tracer) nameID(name string) int32 {
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// begin opens a span nested in the innermost open one and returns its
// index for end.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: t.nameID(name), Parent: t.open, Start: t.clock()})
	t.open = int32(len(t.spans) - 1)
	return t.open
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = t.clock()
	t.open = t.spans[i].Parent
}

// add tallies one call across a layer boundary that started at clock
// reading t0, with boundary-specific quantity n.
func (t *tracer) add(layer string, t0, n int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if t.open >= 0 {
		parent = t.spans[t.open].Name
	}
	k := aggKey{layer, parent}
	a := t.agg[k]
	if a == nil {
		a = &tally{}
		t.agg[k] = a
	}
	a.calls++
	a.ns += t.clock() - t0
	a.n += n
}

// count tallies a quantity that takes no time of its own, such as an
// engine report's reconstructed execution count.
func (t *tracer) count(layer string, n int64) {
	if t == nil {
		return
	}
	t.add(layer, t.clock(), n)
}

// heapAllocs reads the runtime's cumulative heap allocation count without
// stopping the world, for per-call allocation deltas.
func (t *tracer) heapAllocs() int64 {
	if t == nil {
		return 0
	}
	metrics.Read(t.allocs)
	return int64(t.allocs[0].Value.Uint64() + t.allocs[1].Value.Uint64())
}

// total sums the tallies of one layer over every parent.
func (t *tracer) total(layer string) tally {
	var s tally
	for k, a := range t.agg {
		if k.layer == layer {
			s.calls += a.calls
			s.ns += a.ns
			s.n += a.n
		}
	}
	return s
}

// totalPrefix sums the tallies of every layer starting with prefix.
func (t *tracer) totalPrefix(prefix string) tally {
	var s tally
	for k, a := range t.agg {
		if strings.HasPrefix(k.layer, prefix) {
			s.calls += a.calls
			s.ns += a.ns
			s.n += a.n
		}
	}
	return s
}

// writeFile writes the spans and tallies as one JSON document.
func (t *tracer) writeFile(path string) error {
	type aggOut struct {
		Layer  string `json:"layer"`
		Parent string `json:"parent"`
		Calls  int64  `json:"calls"`
		NS     int64  `json:"ns"`
		N      int64  `json:"n"`
	}
	doc := struct {
		Names []string   `json:"names"`
		Spans [][4]int64 `json:"spans"` // name, parent, start ns, end ns
		Agg   []aggOut   `json:"tallies"`
	}{Names: t.names, Spans: make([][4]int64, len(t.spans))}
	for i, s := range t.spans {
		doc.Spans[i] = [4]int64{int64(s.Name), int64(s.Parent), s.Start, s.End}
	}
	for k, a := range t.agg {
		parent := ""
		if k.parent >= 0 {
			parent = t.names[k.parent]
		}
		doc.Agg = append(doc.Agg, aggOut{k.layer, parent, a.calls, a.ns, a.n})
	}
	sort.Slice(doc.Agg, func(i, j int) bool {
		a, b := doc.Agg[i], doc.Agg[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Parent < b.Parent
	})
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
