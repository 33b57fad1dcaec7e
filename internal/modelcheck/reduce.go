package modelcheck

// reduce.go is the model checker's one tree-search engine. Its
// exhaustive mode, the trivial group with the table off
// (Reduced{NoDedup: true}), runs Explore, VerifyAll, AnalyzeValency and
// AnalyzeValencyUnder. Every mode is checked against the naive
// replay-from-root oracles of oracle_test.go. Three techniques compose:
//
//   - Process-symmetry quotienting. Given an explicit permutation group
//     over process ids (Symmetry.Perms), schedules are canonicalized to
//     the lexicographically least member of their orbit and only
//     canonical prefixes are explored. A prefix p with stabilizer
//     S = {π : π·p = p} extends canonically by step e iff π(e) ≥ e for
//     every π ∈ S; the child's stabilizer is {π ∈ S : π(e) = e}. The
//     stabilizer depends only on the SET of process ids used so far
//     (it is the pointwise fixer of that set), which is what makes the
//     transposition table sound. Each canonical leaf stands for an
//     orbit of |G|/|Stab(leaf)| executions (Lagrange), and the engines
//     reconstruct full-tree counts by summing orbit sizes, so
//     SymmetryReport.Executions equals the unreduced execution count
//     exactly.
//
//   - Transposition tables. Each successfully replayed configuration is
//     hashed into a packed byte signature — per-process status byte and
//     response history (built incrementally through sim.Config.OnStep,
//     no fmt on this path), then each object's state signature in
//     sorted name order, every section length-prefixed so splits cannot
//     alias. Programs are pure functions of their response histories
//     (the sim replay contract), so equal signatures imply isomorphic
//     continuations AND equal stabilizers (the signature determines the
//     used-process set); re-reached configurations are charged their
//     memoized subtree weights instead of being re-explored. Objects
//     advertise signatures via sim.StateSigner, falling back to
//     StateKey(); if any object supports neither, dedup is disabled
//     (SymmetryReport.Deduped reports which) and only symmetry
//     quotienting applies.
//
//   - Rewound runs. One live run per engine call, a sim.Stepper the
//     engine drives step by step, walks the tree: it steps from a node
//     into the node's first canonical child, and later siblings and
//     choice branches rewind it to their branch point (see rewind).
//     The stepper reuses its buffers from run to run, and stabilizers
//     and the enabled sets on the search path live in scratch, so
//     steady-state exploration does not allocate per node. A node is
//     signed with the status bytes a run stopped there would report
//     (see signature).
//
// Runs record their trace exactly when the call has a visit callback;
// copyExecution copies it out of the live run.
//
// Documented divergences of a nontrivial group or the table from
// exhaustive mode (verdicts are still equal; see DESIGN.md):
//
//   - visit sees one representative per orbit (and, with dedup, only
//     the first canonical path into a shared configuration), paired
//     with the orbit size.
//   - ValencyReport.DisagreementSchedule is the canonical-first
//     disagreeing schedule, not the unreduced DFS-first one. It still
//     replays to a genuinely disagreeing execution.
//   - The execution budget is charged in orbit-sized chunks, so the
//     engines may stop before literally limit representatives are
//     visited; whether ErrLimit fires (total > limit) and its rendering
//     are identical to exhaustive mode.

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"detobj/internal/sim"
)

// Symmetry is an explicit process-permutation group. Perms must contain
// the identity and be closed under composition (validated once per
// engine call); an empty Perms means the trivial group. Rename, needed
// only by AnalyzeValencyReduced over a nontrivial group, maps a decision
// value through a process renaming (see RenameByInputs); it must be a
// pure function.
type Symmetry struct {
	Perms  [][]int
	Rename func(v sim.Value, perm []int) sim.Value
}

// Reduced configures the reduction engines. The zero value is the
// trivial group with deduplication enabled.
type Reduced struct {
	Sym Symmetry
	// NoDedup disables the transposition table, leaving pure symmetry
	// quotienting — useful for oracle tests that want to see every
	// canonical node.
	NoDedup bool
}

// SymmetryReport accounts for a reduced exploration.
type SymmetryReport struct {
	// Group is the order of the symmetry group.
	Group int
	// Representatives is the number of canonical leaf executions
	// visited.
	Representatives int
	// Executions is the reconstructed unreduced execution count: the
	// sum over canonical leaves of their orbit sizes, routed through
	// the transposition table for deduplicated subtrees. It equals
	// what Explore would count.
	Executions int
	// Configs is the reconstructed unreduced configuration count (what
	// AnalyzeValency reports as Configs).
	Configs int
	// ReducedConfigs is the number of canonical configurations actually
	// replayed and expanded (distinct configurations when Deduped).
	ReducedConfigs int
	// Hits and Misses count transposition-table lookups.
	Hits, Misses int
	// Runs counts the runs the engine started from the root plus its
	// rewinds: one per run a search replaying every later sibling and
	// choice branch from the root would start.
	Runs int
	// Deduped reports whether the transposition table was active
	// (every object supported signatures and NoDedup was false).
	Deduped bool
}

// identityPerm returns the identity permutation on n elements.
func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// permutationsOf returns all permutations of 0..k-1 in a deterministic
// (lexicographic) order.
func permutationsOf(k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	used := make([]bool, k)
	var rec func()
	rec = func() {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < k; i++ {
			if used[i] {
				continue
			}
			used[i] = true
			cur = append(cur, i)
			rec()
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec()
	return out
}

// SymmetricClasses builds the product of full symmetric groups over the
// given pairwise-disjoint classes of process ids, identity elsewhere:
// SymmetricClasses(4, []int{1, 2, 3}) is the group of the E4 relaxed-WRN
// configurations, where the follower processes are interchangeable but
// the solo writer is not. Misuse (out-of-range or overlapping classes)
// panics.
func SymmetricClasses(n int, classes ...[]int) Symmetry {
	seen := make([]bool, n)
	for _, class := range classes {
		for _, i := range class {
			if i < 0 || i >= n {
				panic(fmt.Sprintf("modelcheck: SymmetricClasses index %d out of range [0,%d)", i, n))
			}
			if seen[i] {
				panic(fmt.Sprintf("modelcheck: SymmetricClasses classes overlap at %d", i))
			}
			seen[i] = true
		}
	}
	perms := [][]int{identityPerm(n)}
	for _, class := range classes {
		if len(class) < 2 {
			continue
		}
		sigmas := permutationsOf(len(class))
		next := make([][]int, 0, len(perms)*len(sigmas))
		for _, base := range perms {
			for _, sigma := range sigmas {
				p := append([]int(nil), base...)
				for i, j := range sigma {
					p[class[i]] = class[j]
				}
				next = append(next, p)
			}
		}
		perms = next
	}
	return Symmetry{Perms: perms}
}

// CyclicRotations builds the cyclic group of rotations of n process ids
// — the symmetry of ring algorithms like E1's Algorithm 2, which is
// rotation- but not transposition-equivariant (process i reads cell
// (i+1) mod k).
func CyclicRotations(n int) Symmetry {
	perms := make([][]int, n)
	for j := 0; j < n; j++ {
		p := make([]int, n)
		for i := 0; i < n; i++ {
			p[i] = (i + j) % n
		}
		perms[j] = p
	}
	return Symmetry{Perms: perms}
}

// RenameByInputs builds a Symmetry.Rename for consensus-style protocols
// where process i proposes inputs[i] and every decision value is some
// process's input: renaming processes by perm renames inputs[i] to
// inputs[perm[i]]. Values outside inputs map to themselves.
func RenameByInputs(inputs []sim.Value) func(v sim.Value, perm []int) sim.Value {
	return func(v sim.Value, perm []int) sim.Value {
		for i, in := range inputs {
			if in == v && i < len(perm) {
				return inputs[perm[i]]
			}
		}
		return v
	}
}

// group validates s against n processes and returns the permutation
// list, defaulting an empty Perms to the trivial group.
func (s Symmetry) group(n int) ([][]int, error) {
	if len(s.Perms) == 0 {
		return [][]int{identityPerm(n)}, nil
	}
	// buf packs one permutation, each image in width bytes, so that
	// index[string(buf)] finds a member without allocating.
	width := (bits.Len(uint(n-1)) + 7) / 8
	index := make(map[string]int, len(s.Perms))
	buf := make([]byte, n*width)
	pack := func(i, v int) {
		for b := 0; b < width; b++ {
			buf[i*width+b] = byte(v >> (8 * b))
		}
	}
	seen := make([]bool, n)
	identity := -1
	for k, p := range s.Perms {
		if len(p) != n {
			return nil, fmt.Errorf("modelcheck: Perms[%d] has length %d, want %d", k, len(p), n)
		}
		clear(seen)
		id := true
		for i, v := range p {
			if v < 0 || v >= n || seen[v] {
				return nil, fmt.Errorf("modelcheck: Perms[%d] is not a permutation of %d processes", k, n)
			}
			seen[v] = true
			pack(i, v)
			if v != i {
				id = false
			}
		}
		if _, dup := index[string(buf)]; dup {
			return nil, fmt.Errorf("modelcheck: Perms[%d] duplicates an earlier permutation", k)
		}
		index[string(buf)] = k
		if id {
			identity = k
		}
	}
	if identity < 0 {
		return nil, errors.New("modelcheck: symmetry group must contain the identity permutation")
	}
	// Perms is closed iff the group it generates lies inside it. elems[:ne]
	// is the subgroup generated so far, closed under right products by
	// gens[:ng]. Each unreached member joins gens and at least doubles it,
	// and old elements take only the new generator: O(|G| log |G|) products.
	reached := make([]bool, len(s.Perms))
	elems := make([]int, len(s.Perms))
	gens := make([]int, len(s.Perms))
	reached[identity], elems[0] = true, identity
	ne, ng := 1, 0
	for g := range s.Perms {
		if reached[g] {
			continue
		}
		gens[ng], ng = g, ng+1
		old := ne
		for x, from := 0, ng-1; x < ne; x++ {
			if x == old {
				from = 0
			}
			a := s.Perms[elems[x]]
			for _, y := range gens[from:ng] {
				for i, j := range s.Perms[y] {
					pack(i, a[j])
				}
				k, ok := index[string(buf)]
				if !ok {
					return nil, errors.New("modelcheck: symmetry Perms are not closed under composition")
				}
				if !reached[k] {
					reached[k], elems[ne] = true, k
					ne++
				}
			}
		}
	}
	return s.Perms, nil
}

// redMemo is a transposition-table entry for ExploreReduced: subtree
// weights relative to the node's stabilizer S — execW is
// Σ_leaves |S(node)|/|S(leaf)|, so execW × orbit(node) is the absolute
// execution count of the full (unquotiented) subtree; confW likewise
// for configurations. Equal signatures imply equal stabilizers, so the
// weights transfer between hits without rescaling.
type redMemo struct {
	execW, confW int
}

// rval is one decision value with its rendered key (the dedup and
// report identity).
type rval struct {
	key string
	v   sim.Value
}

// valMemo is a transposition-table entry for AnalyzeValencyReduced: the
// reduced decision-value set of the subtree (closing it under the
// node's stabilizer recovers the full-tree value set), whether the node
// is bivalent in the FULL tree (bivFull), relative subtree weights for
// each report counter, and the canonical-first disagreeing schedule
// suffix below this node.
type valMemo struct {
	vals                      []rval
	bivFull                   bool
	execW, confW, bivW, critW int
	disagree                  []int
	hasDis                    bool
}

// reducer carries the state of one reduced engine call.
type reducer struct {
	f      Factory
	probe  sim.Config // f's first configuration, re-armed per run when rearm
	rearm  bool       // every probe object resets; resets holds them in objOrder
	resets []resetter
	perms  [][]int
	rename func(v sim.Value, perm []int) sim.Value
	dedup  bool
	limit  int
	rep    SymmetryReport

	n        int
	objOrder []string
	objects  map[string]sim.Object // the live run's objects

	run            sim.Stepper // the live run, at the node sched and choices name or below it
	sched, choices []int
	src            scriptSource                            // the choice script, re-armed per run from the root and per rewind
	res            *sim.Result                             // the result of the leaf the live run ended at
	enab           []int                                   // the enabled sets of the nodes on the search path, stacked
	trace          bool                                    // record traces, for visit
	wrap           func(inner sim.Scheduler) sim.Scheduler // AnalyzeValencyUnder's adversary
	adv            sim.Scheduler                           // wrap's adversary of the live run
	pick           picker                                  // the scheduler adv wraps
	onStep         func(proc int, out sim.Value, hang bool)
	hist           [][]byte
	hung           []bool
	sig            []byte
	objSig         []byte
	stabs          [][]int // per-depth stabilizer scratch (indices into perms)

	// onSign, when non-nil, is handed every signature the engine
	// computes while sched and choices still name the signed node. It
	// is a test seam.
	onSign func(sig []byte)

	memo  map[string]*redMemo
	vmemo map[string]*valMemo

	execs int // absolute reconstructed executions, for the budget
}

// newReducer probes the factory once for the process count and object
// set, validates the group, and decides re-arm and dedup capability.
// The caller starts the live run once every check has passed.
func newReducer(f Factory, r Reduced, limit int) (*reducer, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	probe := f()
	n := len(probe.Programs)
	perms, err := r.Sym.group(n)
	if err != nil {
		return nil, err
	}
	red := &reducer{f: f, probe: probe, perms: perms, rename: r.Sym.Rename, limit: limit, n: n}
	red.rep.Group = len(perms)
	for name := range probe.Objects {
		red.objOrder = append(red.objOrder, name)
	}
	sort.Strings(red.objOrder)
	red.rearm = true
	red.resets = make([]resetter, len(red.objOrder))
	for i, name := range red.objOrder {
		rs, ok := probe.Objects[name].(resetter)
		if !ok {
			red.rearm, red.resets = false, nil
			break
		}
		red.resets[i] = rs
	}
	red.dedup = !r.NoDedup
	if red.dedup {
		for _, name := range red.objOrder {
			obj := probe.Objects[name]
			if _, ok := obj.(sim.StateSigner); ok {
				continue
			}
			if _, ok := obj.(interface{ StateKey() string }); ok {
				continue
			}
			red.dedup = false
			break
		}
	}
	red.rep.Deduped = red.dedup
	if red.dedup {
		red.hist = make([][]byte, n)
		red.hung = make([]bool, n)
		// 0x00 marks a hung step; sim's value-signature tags start at
		// 0x01, so histories stay self-delimiting.
		red.onStep = func(proc int, out sim.Value, hang bool) {
			h := red.hist[proc]
			if hang {
				h = append(h, 0x00)
				red.hung[proc] = true
			} else {
				h = sim.AppendValueSig(h, out)
			}
			red.hist[proc] = h
		}
		red.memo = make(map[string]*redMemo)
		red.vmemo = make(map[string]*valMemo)
	}
	return red, nil
}

// config returns the configuration a run from the root starts from,
// and a rewind re-applies its steps to: the re-armed probe, or else f's
// next configuration. It adopts the configuration's objects for the
// signature, clears the response histories and re-arms the choice
// script, and it counts the run in SymmetryReport.Runs. Resetting the
// probe in place is safe because only one run is live.
func (r *reducer) config() sim.Config {
	cfg := r.probe
	if !r.rearm {
		cfg = r.f()
	}
	for _, o := range r.resets {
		o.Reset()
	}
	r.objects = cfg.Objects
	if r.dedup {
		for i := range r.hist {
			r.hist[i] = r.hist[i][:0]
		}
		clear(r.hung)
	}
	r.src.reset(r.choices)
	r.rep.Runs++
	return cfg
}

// start starts the live run from the root: traced only for visit,
// under the choice script, with wrap's adversary when there is one and,
// with dedup, feeding the response histories.
func (r *reducer) start() error {
	cfg := r.config()
	if !r.trace {
		cfg.DisableTrace = true
	}
	cfg.Choice = &r.src
	cfg.Scheduler = nil
	if r.wrap != nil {
		r.adv = r.wrap(&r.pick)
		cfg.Scheduler = r.adv
	}
	if r.dedup {
		cfg.OnStep = r.onStep
	}
	return r.run.Start(cfg)
}

// rewind returns the live run to the configuration that the current
// choice script reaches after the first t steps of sched. No log
// captures an adversary's state, so under wrap the run starts again
// from the root, with a new adversary, and steps sched[:t] afresh, as a
// run from the root does.
func (r *reducer) rewind(t int) error {
	if r.wrap != nil {
		if err := r.start(); err != nil {
			return err
		}
		for _, id := range r.sched[:t] {
			if err := r.step(id); err != nil {
				return err
			}
		}
		return nil
	}
	return r.run.Rewind(t, r.config().Objects)
}

// step advances the live run by process id. Under wrap the pick goes
// through the adversary's Next, as Run's loop asks its scheduler, and
// the run steps what Next answers.
func (r *reducer) step(id int) error {
	if r.adv != nil {
		enabled, err := r.run.Enabled()
		if err != nil {
			return err
		}
		r.pick = picker(id)
		id = r.adv.Next(sim.View{Step: r.run.Steps(), Enabled: enabled})
	}
	return r.run.Step(id)
}

// picker is the inner scheduler wrap's adversary wraps: it answers
// every Next with the engine's pick.
type picker int

// Next implements sim.Scheduler.
func (p *picker) Next(sim.View) int { return int(*p) }

// signature packs the canonical signature of the live run's
// configuration: per process a status byte plus its length-prefixed
// response history, then each object's length-prefixed state signature
// in sorted name order. enabled is the node's enabled set, or nil once
// the run has ended. The status byte is the one a replay of
// the same prefix, stopped at this node, reports in Result.Status:
// Stopped for an enabled process, Hung for one a step hung, and Done
// otherwise (the reduced engines inject no faults, and a program panic
// ends the run with an error). The returned slice is reducer-owned
// scratch; callers must copy it (via string conversion) before the next
// signature.
func (r *reducer) signature(enabled []int) []byte {
	buf := r.sig[:0]
	for i := 0; i < r.n; i++ {
		st := sim.StatusDone
		switch {
		case len(enabled) > 0 && enabled[0] == i:
			st = sim.StatusStopped
			enabled = enabled[1:]
		case r.hung[i]:
			st = sim.StatusHung
		}
		buf = append(buf, byte(st))
		h := r.hist[i]
		buf = sim.AppendIntSig(buf, len(h))
		buf = append(buf, h...)
	}
	for _, name := range r.objOrder {
		obj := r.objects[name]
		os := r.objSig[:0]
		if signer, ok := obj.(sim.StateSigner); ok {
			os = signer.AppendStateSig(os)
		} else if sk, ok := obj.(interface{ StateKey() string }); ok {
			os = sim.AppendStringSig(os, sk.StateKey())
		} else {
			panic(fmt.Sprintf("modelcheck: factory object set changed between runs (object %q lost its signature)", name))
		}
		r.objSig = os
		buf = sim.AppendIntSig(buf, len(os))
		buf = append(buf, os...)
	}
	r.sig = buf
	if r.onSign != nil {
		r.onSign(buf)
	}
	return buf
}

// canonicalStep reports whether extending a prefix with stabilizer stab
// by process id keeps the schedule lexicographically least in its
// orbit: every stabilizer member must map id at or above itself.
func canonicalStep(perms [][]int, stab []int, id int) bool {
	for _, pi := range stab {
		if perms[pi][id] < id {
			return false
		}
	}
	return true
}

// childStab returns the stabilizer of the child that steps id, the
// members of stab that fix id, built in depth's reusable scratch.
func (r *reducer) childStab(depth int, stab []int, id int) []int {
	for len(r.stabs) <= depth {
		r.stabs = append(r.stabs, nil)
	}
	cs := r.stabs[depth][:0]
	for _, pi := range stab {
		if r.perms[pi][id] == id {
			cs = append(cs, pi)
		}
	}
	r.stabs[depth] = cs
	return cs
}

// reach brings the live run to the node at the current prefix and
// returns the node's enabled set, or nil at a leaf, whose result it
// keeps in r.res. With carry the live run is at the node's parent and
// steps into the node; otherwise it rewinds to the parent first, or
// starts from the root. The enabled set aliases the run's round buffer,
// which the next step rewrites.
func (r *reducer) reach(carry bool) ([]int, error) {
	t := len(r.sched)
	if t == 0 {
		if err := r.start(); err != nil {
			return nil, err
		}
	} else {
		if !carry {
			if err := r.rewind(t - 1); err != nil {
				return nil, err
			}
		}
		if err := r.step(r.sched[t-1]); err != nil {
			return nil, err
		}
	}
	enabled, err := r.run.Enabled()
	if err != nil || len(enabled) > 0 {
		return enabled, err
	}
	r.res, err = r.run.Result()
	return nil, err
}

// push stacks a node's enabled set on r.enab, where it outlives the
// rounds of the node's children, and returns its bounds.
func (r *reducer) push(enabled []int) (lo, hi int) {
	lo = len(r.enab)
	r.enab = append(r.enab, enabled...)
	return lo, len(r.enab)
}

// copyExecution deep-copies the run outcome out of the live run (whose
// buffers, trace events included, its next step or rewind reuses) into
// a caller-owned Execution. No wrap reaches a visited run, so Restarts
// is nil.
func copyExecution(sched, choices []int, res *sim.Result) Execution {
	cp := &sim.Result{
		Outputs: append([]sim.Value(nil), res.Outputs...),
		Status:  append([]sim.ProcStatus(nil), res.Status...),
		Enabled: append([]int(nil), res.Enabled...),
		Steps:   res.Steps,
		Trace:   sim.Trace{Events: append([]sim.Event(nil), res.Trace.Events...)},
	}
	return Execution{
		Schedule: append([]int(nil), sched...),
		Choices:  append([]int(nil), choices...),
		Result:   cp,
	}
}

// ExploreReduced enumerates one representative execution per symmetry
// orbit, deduplicating re-reached configurations through the
// transposition table. visit (which may be nil) receives each canonical
// leaf with its orbit size; the report's Executions reconstructs the
// exact unreduced count. limit bounds reconstructed executions (0 means
// 1<<20) with the same ErrLimit rendering as Explore; see the file
// comment for the chunked-budget divergence.
func ExploreReduced(f Factory, r Reduced, limit int, visit func(e Execution, orbit int) error) (*SymmetryReport, error) {
	red, err := newReducer(f, r, limit)
	if err != nil {
		return nil, err
	}
	return red.explore(visit)
}

// explore runs ExploreReduced's search from the root. The root's
// stabilizer is the whole group, every index into perms.
func (r *reducer) explore(visit func(e Execution, orbit int) error) (*SymmetryReport, error) {
	r.trace = visit != nil
	defer r.run.Stop()
	_, confW, err := r.exploreRec(0, identityPerm(len(r.perms)), false, visit)
	r.rep.Executions = r.execs
	r.rep.Configs = confW
	return &r.rep, decodeRunError(err)
}

// exploreRec explores the canonical subtree below the current prefix
// and returns the subtree's execution and configuration weights
// relative to the node's stabilizer (see redMemo). The live run steps
// into the node from its parent when carry is set: only the first
// canonical child carries, and later siblings and choice branches
// rewind to the parent first. A transposition hit returns with the run
// parked at the node; the next rewind moves it.
func (r *reducer) exploreRec(depth int, stab []int, carry bool, visit func(e Execution, orbit int) error) (execW, confW int, err error) {
	enabled, err := r.reach(carry)
	if err != nil {
		var demand choiceDemand
		if asDemand(err, &demand) {
			// A nondeterministic object branch: same schedule prefix,
			// same stabilizer, one child per choice value.
			for c := 0; c < demand.n; c++ {
				r.choices = append(r.choices, c)
				cw, cc, cerr := r.exploreRec(depth, stab, false, visit)
				r.choices = r.choices[:len(r.choices)-1]
				if cerr != nil {
					return 0, 0, cerr
				}
				execW += cw
				confW += cc
			}
			return execW, confW, nil
		}
		return 0, 0, err
	}
	orbit := len(r.perms) / len(stab)
	var key string
	if r.dedup {
		buf := r.signature(enabled)
		if m, ok := r.memo[string(buf)]; ok {
			r.rep.Hits++
			add := m.execW * orbit
			if r.execs+add > r.limit {
				return 0, 0, errLimitExceeded(r.limit)
			}
			r.execs += add
			return m.execW, m.confW, nil
		}
		r.rep.Misses++
		key = string(buf)
	}
	r.rep.ReducedConfigs++
	if enabled == nil {
		if r.execs+orbit > r.limit {
			return 0, 0, errLimitExceeded(r.limit)
		}
		r.execs += orbit
		r.rep.Representatives++
		if visit != nil {
			if verr := visit(copyExecution(r.sched, r.choices, r.res), orbit); verr != nil {
				return 0, 0, verr
			}
		}
		if r.dedup {
			r.memo[key] = &redMemo{execW: 1, confW: 1}
		}
		return 1, 1, nil
	}
	confW = 1
	first := true
	lo, hi := r.push(enabled)
	for i := lo; i < hi; i++ {
		id := r.enab[i]
		if !canonicalStep(r.perms, stab, id) {
			continue
		}
		cs := r.childStab(depth+1, stab, id)
		r.sched = append(r.sched, id)
		cw, cc, cerr := r.exploreRec(depth+1, cs, first, visit)
		r.sched = r.sched[:len(r.sched)-1]
		first = false
		if cerr != nil {
			return 0, 0, cerr
		}
		ratio := len(stab) / len(cs)
		execW += cw * ratio
		confW += cc * ratio
	}
	r.enab = r.enab[:lo]
	if r.dedup {
		r.memo[key] = &redMemo{execW: execW, confW: confW}
	}
	return execW, confW, nil
}

// AnalyzeValencyReduced is AnalyzeValency on the reduced engine: same
// ValencyReport verdicts (Configs, Executions, Bivalent, Critical,
// Agreement, Values) reconstructed from the quotiented tree, plus the
// reduction accounting. A nontrivial group requires Sym.Rename so
// decision values can be renamed along with processes (value sets of
// orbit siblings are images of each other). DisagreementSchedule is
// canonical-first; see the file comment.
func AnalyzeValencyReduced(f Factory, r Reduced, limit int) (*ValencyReport, *SymmetryReport, error) {
	red, err := newReducer(f, r, limit)
	if err != nil {
		return nil, nil, err
	}
	if len(red.perms) > 1 && red.rename == nil {
		return nil, nil, errors.New("modelcheck: AnalyzeValencyReduced requires Sym.Rename for a nontrivial group")
	}
	return red.valency()
}

// valency runs AnalyzeValencyReduced's analysis from the root, whose
// stabilizer is the whole group.
func (r *reducer) valency() (*ValencyReport, *SymmetryReport, error) {
	defer r.run.Stop()
	root, err := r.valRec(0, identityPerm(len(r.perms)), false)
	r.rep.Executions = r.execs
	if err != nil {
		return nil, &r.rep, decodeRunError(err)
	}
	r.rep.Configs = root.confW
	// A disagreeing root leaf has an empty schedule, which copies to
	// nil; hasDis carries the verdict.
	var dis []int
	if root.hasDis {
		dis = append([]int(nil), root.disagree...)
	}
	rep := &ValencyReport{
		Configs:              root.confW,
		Executions:           root.execW,
		Bivalent:             root.bivW,
		Critical:             root.critW,
		Agreement:            !root.hasDis,
		Values:               r.closureValues(root.vals),
		DisagreementSchedule: dis,
	}
	return rep, &r.rep, nil
}

// valRec runs the valency analysis over the canonical subtree below the
// current prefix, returning the node's valMemo (relative weights,
// reduced value set, full-tree bivalence). The run steps into the first
// child and rewinds for the others, and a hit leaves it parked, as in
// exploreRec.
func (r *reducer) valRec(depth int, stab []int, carry bool) (*valMemo, error) {
	enabled, err := r.reach(carry)
	if err != nil {
		var demand choiceDemand
		if asDemand(err, &demand) {
			return nil, errNondetValency(err)
		}
		return nil, err
	}
	orbit := len(r.perms) / len(stab)
	var key string
	if r.dedup {
		buf := r.signature(enabled)
		if m, ok := r.vmemo[string(buf)]; ok {
			r.rep.Hits++
			r.execs += m.execW * orbit
			if r.execs > r.limit {
				return nil, errLimitExceeded(r.limit)
			}
			return m, nil
		}
		r.rep.Misses++
		key = string(buf)
	}
	r.rep.ReducedConfigs++
	node := &valMemo{confW: 1}
	if enabled == nil {
		res := r.res
		r.execs += orbit
		if r.execs > r.limit {
			return nil, errLimitExceeded(r.limit)
		}
		r.rep.Representatives++
		node.execW = 1
		for i, st := range res.Status {
			if st != sim.StatusDone {
				continue
			}
			node.vals = mergeVal(node.vals, rval{key: sim.Sprint(res.Outputs[i]), v: res.Outputs[i]})
		}
		if len(node.vals) > 1 {
			// Internal disagreement; its whole orbit disagrees too
			// (renaming preserves value-set cardinality), so recording
			// the canonical leaf suffices. A leaf's stabilizer fixes
			// the execution, so no closure is needed here.
			node.bivFull = true
			node.hasDis = true
			node.disagree = []int{}
		}
		if r.dedup {
			r.vmemo[key] = node
		}
		return node, nil
	}
	allUniv := true
	first := true
	lo, hi := r.push(enabled)
	for i := lo; i < hi; i++ {
		id := r.enab[i]
		if !canonicalStep(r.perms, stab, id) {
			continue
		}
		cs := r.childStab(depth+1, stab, id)
		r.sched = append(r.sched, id)
		child, cerr := r.valRec(depth+1, cs, first)
		r.sched = r.sched[:len(r.sched)-1]
		first = false
		if cerr != nil {
			return nil, cerr
		}
		ratio := len(stab) / len(cs)
		node.execW += child.execW * ratio
		node.confW += child.confW * ratio
		node.bivW += child.bivW * ratio
		node.critW += child.critW * ratio
		// Non-canonical siblings are π-images of canonical children,
		// so their full value sets have the same cardinalities —
		// checking bivalence on canonical children covers the orbit.
		if child.bivFull {
			allUniv = false
		}
		for _, rv := range child.vals {
			node.vals = mergeVal(node.vals, rv)
		}
		if !node.hasDis && child.hasDis {
			node.hasDis = true
			node.disagree = append([]int{id}, child.disagree...)
		}
	}
	r.enab = r.enab[:lo]
	node.bivFull = r.closedBivalent(node.vals, stab)
	if node.bivFull {
		node.bivW++
		if allUniv {
			node.critW++
		}
	}
	if r.dedup {
		r.vmemo[key] = node
	}
	return node, nil
}

// closedBivalent reports whether the node's FULL-tree value set — the
// closure of its reduced value set under its stabilizer — has more than
// one element: either the reduced set already does, or renaming the
// single value by some stabilizer member changes it.
func (r *reducer) closedBivalent(vals []rval, stab []int) bool {
	if len(vals) > 1 {
		return true
	}
	if len(vals) == 0 || r.rename == nil {
		return false
	}
	v := vals[0]
	for _, pi := range stab {
		if sim.Sprint(r.rename(v.v, r.perms[pi])) != v.key {
			return true
		}
	}
	return false
}

// closureValues closes the root's reduced value set under the whole
// group and renders it sorted, matching ValencyReport.Values of the
// exhaustive mode.
func (r *reducer) closureValues(vals []rval) []string {
	set := make(map[string]bool)
	for _, rv := range vals {
		if r.rename == nil {
			set[rv.key] = true
			continue
		}
		for _, p := range r.perms {
			set[sim.Sprint(r.rename(rv.v, p))] = true
		}
	}
	var out []string
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// mergeVal adds rv to the set unless its rendered key is already
// present. Value sets are tiny (a handful of decisions), so a linear
// scan beats a map here.
func mergeVal(dst []rval, rv rval) []rval {
	for _, d := range dst {
		if d.key == rv.key {
			return dst
		}
	}
	return append(dst, rv)
}
