package main

// wrap.go holds the traced run's wrappers around what the benchmark hands
// to the program: shared objects, schedulers, factories and visit
// callbacks. Each times the calls into one layer's public methods from
// outside and tallies them on the tracer.
//
// The program changes behaviour on the optional interfaces an object or a
// scheduler implements: the reduction engines deduplicate only when every
// object is a sim.StateSigner or has StateKey, the runtime calls OnCrash
// only on sim.Recoverable objects, the Lemma 38 engine needs
// modelcheck.Finite, and a scheduler is consulted for faults and shown
// events only when it is a sim.FaultInjector or a sim.Observer. A wrapper
// must therefore expose exactly the optional interfaces of what it wraps,
// no more and no less, which is why there is one wrapper type per
// combination below.

import (
	"path"
	"reflect"

	"detobj/internal/modelcheck"
	"detobj/internal/sim"
)

// Layer names of the tallies the wrappers record.
const (
	layerApply    = "apply "
	layerSig      = "sig"
	layerStateKey = "statekey"
	layerClone    = "clone"
	layerOnCrash  = "oncrash"
	layerNext     = "next"
	layerFaults   = "faults"
	layerObserve  = "observe"
	layerCrash    = "crash"
	layerRestart  = "restart"
	layerFactory  = "factory"
	layerVisit    = "visit"
	layerEngine   = "engine"
	layerRun      = "run"
	layerRunAlloc = "run.allocs"
	layerTasks    = "check tasks"
	layerLin      = "check linearize"
)

// Optional object interfaces, as bits of an interface mask.
const (
	sigBit   = 1 << iota // sim.StateSigner
	keyBit               // StateKey() string
	cloneBit             // CloneObject() sim.Object
	crashBit             // sim.Recoverable
)

type stateKeyer interface{ StateKey() string }

type cloneable interface{ CloneObject() sim.Object }

// objectMask reports which optional interfaces x implements.
func objectMask(x sim.Object) int {
	m := 0
	if _, ok := x.(sim.StateSigner); ok {
		m |= sigBit
	}
	if _, ok := x.(stateKeyer); ok {
		m |= keyBit
	}
	if _, ok := x.(cloneable); ok {
		m |= cloneBit
	}
	if _, ok := x.(sim.Recoverable); ok {
		m |= crashBit
	}
	return m
}

// object times Apply on the object it wraps. Apply calls made inside a
// simulator run (env.Rand is never nil there) also count as sim steps; the
// Lemma 38 engine applies with a bare Env.
type object struct {
	inner sim.Object
	tr    *tracer
	layer string
}

// Apply implements sim.Object.
func (o *object) Apply(env *sim.Env, inv sim.Invocation) sim.Response {
	t0 := o.tr.clock()
	r := o.inner.Apply(env, inv)
	var step int64
	if env.Rand != nil {
		step = 1
	}
	o.tr.add(o.layer, t0, step)
	return r
}

type signer struct{ o *object }

// AppendStateSig implements sim.StateSigner.
func (s signer) AppendStateSig(dst []byte) []byte {
	t0 := s.o.tr.clock()
	n := len(dst)
	dst = s.o.inner.(sim.StateSigner).AppendStateSig(dst)
	s.o.tr.add(layerSig, t0, int64(len(dst)-n))
	return dst
}

type keyer struct{ o *object }

// StateKey implements the model checker's state-key contract.
func (k keyer) StateKey() string {
	t0 := k.o.tr.clock()
	key := k.o.inner.(stateKeyer).StateKey()
	k.o.tr.add(layerStateKey, t0, 0)
	return key
}

type cloner struct{ o *object }

// CloneObject implements modelcheck.Finite's copy; the copy is wrapped
// too, so the engine's work on it stays visible.
func (c cloner) CloneObject() sim.Object {
	t0 := c.o.tr.clock()
	cp := c.o.inner.(cloneable).CloneObject()
	c.o.tr.add(layerClone, t0, 0)
	return wrapObject(c.o.tr, cp)
}

type crasher struct{ o *object }

// OnCrash implements sim.Recoverable.
func (c crasher) OnCrash(proc int) {
	t0 := c.o.tr.clock()
	c.o.inner.(sim.Recoverable).OnCrash(proc)
	c.o.tr.add(layerOnCrash, t0, 0)
}

// One wrapper type per combination of optional interfaces, named by the
// initials of the interfaces it adds: S(igner), K(eyer), C(loner),
// R(ecoverable).
type (
	oS struct {
		*object
		signer
	}
	oK struct {
		*object
		keyer
	}
	oSK struct {
		*object
		signer
		keyer
	}
	oC struct {
		*object
		cloner
	}
	oSC struct {
		*object
		signer
		cloner
	}
	oKC struct {
		*object
		keyer
		cloner
	}
	oSKC struct {
		*object
		signer
		keyer
		cloner
	}
	oR struct {
		*object
		crasher
	}
	oSR struct {
		*object
		signer
		crasher
	}
	oKR struct {
		*object
		keyer
		crasher
	}
	oSKR struct {
		*object
		signer
		keyer
		crasher
	}
	oCR struct {
		*object
		cloner
		crasher
	}
	oSCR struct {
		*object
		signer
		cloner
		crasher
	}
	oKCR struct {
		*object
		keyer
		cloner
		crasher
	}
	oSKCR struct {
		*object
		signer
		keyer
		cloner
		crasher
	}
)

// withInterfaces returns o as the wrapper type exposing exactly the
// interfaces in mask.
func withInterfaces(o *object, mask int) sim.Object {
	s, k, c, r := signer{o}, keyer{o}, cloner{o}, crasher{o}
	switch mask {
	case 0:
		return o
	case sigBit:
		return oS{o, s}
	case keyBit:
		return oK{o, k}
	case sigBit | keyBit:
		return oSK{o, s, k}
	case cloneBit:
		return oC{o, c}
	case sigBit | cloneBit:
		return oSC{o, s, c}
	case keyBit | cloneBit:
		return oKC{o, k, c}
	case sigBit | keyBit | cloneBit:
		return oSKC{o, s, k, c}
	case crashBit:
		return oR{o, r}
	case sigBit | crashBit:
		return oSR{o, s, r}
	case keyBit | crashBit:
		return oKR{o, k, r}
	case sigBit | keyBit | crashBit:
		return oSKR{o, s, k, r}
	case cloneBit | crashBit:
		return oCR{o, c, r}
	case sigBit | cloneBit | crashBit:
		return oSCR{o, s, c, r}
	case keyBit | cloneBit | crashBit:
		return oKCR{o, k, c, r}
	default:
		return oSKCR{o, s, k, c, r}
	}
}

// wrapObject wraps x for the traced run; untraced it returns x itself.
func wrapObject(t *tracer, x sim.Object) sim.Object {
	if t == nil {
		return x
	}
	ty := reflect.TypeOf(x)
	layer, ok := t.applyLayers[ty]
	if !ok {
		layer = layerApply + typeName(x)
		t.applyLayers[ty] = layer
	}
	return withInterfaces(&object{inner: x, tr: t, layer: layer}, objectMask(x))
}

// wrapObjects wraps every object of a configuration in place.
func wrapObjects(t *tracer, objects map[string]sim.Object) {
	if t == nil {
		return
	}
	for name, x := range objects {
		objects[name] = wrapObject(t, x)
	}
}

// typeName renders x's dynamic type as "<package>.<Type>", e.g.
// "wrn.OneShot"; the package part is the module the per-module metrics
// group by.
func typeName(x any) string {
	ty := reflect.TypeOf(x)
	for ty.Kind() == reflect.Pointer {
		ty = ty.Elem()
	}
	return path.Base(ty.PkgPath()) + "." + ty.Name()
}

// Optional scheduler interfaces, as bits of an interface mask.
const (
	observerBit = 1 << iota // sim.Observer
	injectorBit             // sim.FaultInjector
)

func schedulerMask(s sim.Scheduler) int {
	m := 0
	if _, ok := s.(sim.Observer); ok {
		m |= observerBit
	}
	if _, ok := s.(sim.FaultInjector); ok {
		m |= injectorBit
	}
	return m
}

// scheduler times Next on the scheduler it wraps.
type scheduler struct {
	inner sim.Scheduler
	tr    *tracer
}

// Next implements sim.Scheduler.
func (s *scheduler) Next(v sim.View) int {
	t0 := s.tr.clock()
	id := s.inner.Next(v)
	s.tr.add(layerNext, t0, 0)
	return id
}

type observer struct{ s *scheduler }

// Observe implements sim.Observer.
func (o observer) Observe(e sim.Event) {
	t0 := o.s.tr.clock()
	o.s.inner.(sim.Observer).Observe(e)
	o.s.tr.add(layerObserve, t0, 0)
}

type injector struct{ s *scheduler }

// Faults implements sim.FaultInjector, also counting the crashes and
// restarts it directs.
func (f injector) Faults(v sim.View) []sim.Fault {
	t0 := f.s.tr.clock()
	faults := f.s.inner.(sim.FaultInjector).Faults(v)
	f.s.tr.add(layerFaults, t0, int64(len(faults)))
	for _, x := range faults {
		if x.Kind == sim.FaultCrash {
			f.s.tr.count(layerCrash, 1)
		} else {
			f.s.tr.count(layerRestart, 1)
		}
	}
	return faults
}

type (
	sO struct {
		*scheduler
		observer
	}
	sF struct {
		*scheduler
		injector
	}
	sOF struct {
		*scheduler
		observer
		injector
	}
)

// wrapScheduler wraps s for the traced run, exposing exactly its optional
// interfaces; untraced (or for a nil scheduler) it returns s itself.
func wrapScheduler(t *tracer, s sim.Scheduler) sim.Scheduler {
	if t == nil || s == nil {
		return s
	}
	w := &scheduler{inner: s, tr: t}
	switch schedulerMask(s) {
	case 0:
		return w
	case observerBit:
		return sO{w, observer{w}}
	case injectorBit:
		return sF{w, injector{w}}
	default:
		return sOF{w, observer{w}, injector{w}}
	}
}

// run is sim.Run as the sampled workload calls it. Traced, the objects
// and the scheduler are wrapped first and the call is tallied as the sim
// layer, with the trace events it recorded and the heap allocations it
// made.
func (t *tracer) run(cfg sim.Config) (*sim.Result, error) {
	if t == nil {
		return sim.Run(cfg)
	}
	wrapObjects(t, cfg.Objects)
	cfg.Scheduler = wrapScheduler(t, cfg.Scheduler)
	a0 := t.heapAllocs()
	t0 := t.clock()
	res, err := sim.Run(cfg)
	var events int64
	if res != nil {
		events = int64(len(res.Trace.Events))
	}
	t.add(layerRun, t0, events)
	t.count(layerRunAlloc, t.heapAllocs()-a0)
	return res, err
}

// factory wraps an engine factory: every configuration it builds has its
// objects wrapped, and each call, which is one engine replay, is tallied.
func (t *tracer) factory(f modelcheck.Factory) modelcheck.Factory {
	if t == nil {
		return f
	}
	return func() sim.Config {
		t0 := t.clock()
		cfg := f()
		wrapObjects(t, cfg.Objects)
		t.add(layerFactory, t0, 0)
		return cfg
	}
}

// visit wraps an Explore visit callback, tallying each call.
func (t *tracer) visit(v func(modelcheck.Execution) error) func(modelcheck.Execution) error {
	if t == nil {
		return v
	}
	return func(e modelcheck.Execution) error {
		t0 := t.clock()
		err := v(e)
		t.add(layerVisit, t0, 0)
		return err
	}
}

// beginEngine opens the span of one engine call; endEngine closes it and
// tallies its time as the modelcheck layer.
func (t *tracer) beginEngine(name string) (int32, int64) {
	return t.begin(name), t.clock()
}

func (t *tracer) endEngine(i int32, t0 int64) {
	if t == nil {
		return
	}
	t.end(i)
	t.add(layerEngine, t0, 0)
}
