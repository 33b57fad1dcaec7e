package modelcheck

// reduce.go is the opt-in state-space reduction layer. Three techniques
// compose, each keeping the exhaustive engines of explore.go/valency.go
// as the oracle (cross-checked by TestReducedOracle* on every experiment
// factory):
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
//   - Arena replay. All replays run through one sim.RunArena, one
//     sim.Fixed and one choice script per engine call, with per-depth
//     scratch frames for stabilizers and enabled sets, so steady-state
//     exploration does not allocate per run.
//
// Documented divergences from the unreduced engines (verdicts are still
// equal; see DESIGN.md):
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
//     are identical to the unreduced engines.

import (
	"errors"
	"fmt"
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
	// Runs is the number of simulator runs performed.
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
	keys := make(map[string]bool, len(s.Perms))
	pack := func(p []int) string {
		b := make([]byte, len(p))
		for i, v := range p {
			b[i] = byte(v)
		}
		return string(b)
	}
	hasIdentity := false
	for k, p := range s.Perms {
		if len(p) != n {
			return nil, fmt.Errorf("modelcheck: Perms[%d] has length %d, want %d", k, len(p), n)
		}
		seen := make([]bool, n)
		id := true
		for i, v := range p {
			if v < 0 || v >= n || seen[v] {
				return nil, fmt.Errorf("modelcheck: Perms[%d] is not a permutation of %d processes", k, n)
			}
			seen[v] = true
			if v != i {
				id = false
			}
		}
		key := pack(p)
		if keys[key] {
			return nil, fmt.Errorf("modelcheck: Perms[%d] duplicates an earlier permutation", k)
		}
		keys[key] = true
		if id {
			hasIdentity = true
		}
	}
	if !hasIdentity {
		return nil, errors.New("modelcheck: symmetry group must contain the identity permutation")
	}
	comp := make([]int, n)
	for _, a := range s.Perms {
		for _, b := range s.Perms {
			for i := 0; i < n; i++ {
				comp[i] = a[b[i]]
			}
			if !keys[pack(comp)] {
				return nil, errors.New("modelcheck: symmetry Perms are not closed under composition")
			}
		}
	}
	return s.Perms, nil
}

// redFrame is per-depth reusable scratch: the stabilizer (as indices
// into reducer.perms) of the node AT this depth and a copy of its
// enabled set (sim.Result.Enabled aliases arena storage, which child
// runs clobber).
type redFrame struct {
	stab    []int
	enabled []int
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
	perms  [][]int
	rename func(v sim.Value, perm []int) sim.Value
	dedup  bool
	limit  int
	rep    SymmetryReport

	n        int
	objOrder []string
	objects  map[string]sim.Object

	sched, choices []int
	fixed          sim.Fixed
	src            scriptSource
	arena          sim.RunArena
	onStep         func(proc int, out sim.Value, hang bool)
	hist           [][]byte
	sig            []byte
	objSig         []byte
	frames         []redFrame

	memo  map[string]*redMemo
	vmemo map[string]*valMemo

	execs int // absolute reconstructed executions, for the budget
}

// newReducer probes the factory once for the process count and object
// set, validates the group, and decides dedup capability.
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
	red := &reducer{f: f, perms: perms, rename: r.Sym.Rename, limit: limit, n: n}
	red.rep.Group = len(perms)
	for name := range probe.Objects {
		red.objOrder = append(red.objOrder, name)
	}
	sort.Strings(red.objOrder)
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
		// 0x00 marks a hung step; sim's value-signature tags start at
		// 0x01, so histories stay self-delimiting.
		red.onStep = func(proc int, out sim.Value, hang bool) {
			h := red.hist[proc]
			if hang {
				h = append(h, 0x00)
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

// runCurrent replays the current (sched, choices) prefix through the
// shared arena, fixed scheduler and script source.
func (r *reducer) runCurrent() (*sim.Result, error) {
	cfg := r.f()
	r.objects = cfg.Objects
	r.fixed.Reset(r.sched)
	r.src.reset(r.choices)
	cfg.Scheduler = &r.fixed
	cfg.Choice = &r.src
	cfg.DisableTrace = true
	cfg.Arena = &r.arena
	if r.dedup {
		for i := range r.hist {
			r.hist[i] = r.hist[i][:0]
		}
		cfg.OnStep = r.onStep
	}
	r.rep.Runs++
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, decodeRunError(err)
	}
	return res, nil
}

// signature packs the canonical configuration signature: per process a
// status byte plus its length-prefixed response history, then each
// object's length-prefixed state signature in sorted name order. The
// returned slice is reducer-owned scratch; callers must copy (via
// string conversion) before the next run.
func (r *reducer) signature(res *sim.Result) []byte {
	buf := r.sig[:0]
	for i := 0; i < r.n; i++ {
		buf = append(buf, byte(res.Status[i]))
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

// frame returns the scratch frame for depth d, growing the stack as
// needed.
func (r *reducer) frame(d int) *redFrame {
	for len(r.frames) <= d {
		r.frames = append(r.frames, redFrame{})
	}
	return &r.frames[d]
}

// copyExecution deep-copies the run outcome out of the arena (whose
// buffers the next run reuses) into a caller-owned Execution.
func copyExecution(sched, choices []int, res *sim.Result) Execution {
	cp := &sim.Result{
		Outputs: append([]sim.Value(nil), res.Outputs...),
		Status:  append([]sim.ProcStatus(nil), res.Status...),
		Enabled: append([]int(nil), res.Enabled...),
		Steps:   res.Steps,
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
	stab := make([]int, len(red.perms))
	for i := range stab {
		stab[i] = i
	}
	_, confW, err := red.exploreRec(0, stab, visit)
	red.rep.Executions = red.execs
	red.rep.Configs = confW
	return &red.rep, err
}

// exploreRec explores the canonical subtree below the current prefix
// and returns the subtree's execution and configuration weights
// relative to the node's stabilizer (see redMemo).
func (r *reducer) exploreRec(depth int, stab []int, visit func(e Execution, orbit int) error) (execW, confW int, err error) {
	res, err := r.runCurrent()
	if err != nil {
		var demand choiceDemand
		if asDemand(err, &demand) {
			// A nondeterministic object branch: same schedule prefix,
			// same stabilizer, one child per choice value.
			for c := 0; c < demand.n; c++ {
				r.choices = append(r.choices, c)
				cw, cc, cerr := r.exploreRec(depth, stab, visit)
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
		buf := r.signature(res)
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
	if len(res.Enabled) == 0 {
		if r.execs+orbit > r.limit {
			return 0, 0, errLimitExceeded(r.limit)
		}
		r.execs += orbit
		r.rep.Representatives++
		if visit != nil {
			if verr := visit(copyExecution(r.sched, r.choices, res), orbit); verr != nil {
				return 0, 0, verr
			}
		}
		if r.dedup {
			r.memo[key] = &redMemo{execW: 1, confW: 1}
		}
		return 1, 1, nil
	}
	fr := r.frame(depth)
	en := append(fr.enabled[:0], res.Enabled...)
	fr.enabled = en
	confW = 1
	for _, id := range en {
		if !canonicalStep(r.perms, stab, id) {
			continue
		}
		cf := r.frame(depth + 1)
		cs := cf.stab[:0]
		for _, pi := range stab {
			if r.perms[pi][id] == id {
				cs = append(cs, pi)
			}
		}
		cf.stab = cs
		r.sched = append(r.sched, id)
		cw, cc, cerr := r.exploreRec(depth+1, cs, visit)
		r.sched = r.sched[:len(r.sched)-1]
		if cerr != nil {
			return 0, 0, cerr
		}
		ratio := len(stab) / len(cs)
		execW += cw * ratio
		confW += cc * ratio
	}
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
	stab := make([]int, len(red.perms))
	for i := range stab {
		stab[i] = i
	}
	root, err := red.valRec(0, stab)
	red.rep.Executions = red.execs
	if err != nil {
		return nil, &red.rep, err
	}
	red.rep.Configs = root.confW
	// A disagreeing root leaf has an empty schedule, which copies to nil
	// as in valencyAcc.disagreeAt; hasDis carries the verdict.
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
		Values:               red.closureValues(root.vals),
		DisagreementSchedule: dis,
	}
	return rep, &red.rep, nil
}

// valRec runs the valency analysis over the canonical subtree below the
// current prefix, returning the node's valMemo (relative weights,
// reduced value set, full-tree bivalence).
func (r *reducer) valRec(depth int, stab []int) (*valMemo, error) {
	res, err := r.runCurrent()
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
		buf := r.signature(res)
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
	if len(res.Enabled) == 0 {
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
			node.vals = mergeVal(node.vals, rval{key: renderValue(res.Outputs[i]), v: res.Outputs[i]})
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
	fr := r.frame(depth)
	en := append(fr.enabled[:0], res.Enabled...)
	fr.enabled = en
	allUniv := true
	for _, id := range en {
		if !canonicalStep(r.perms, stab, id) {
			continue
		}
		cf := r.frame(depth + 1)
		cs := cf.stab[:0]
		for _, pi := range stab {
			if r.perms[pi][id] == id {
				cs = append(cs, pi)
			}
		}
		cf.stab = cs
		r.sched = append(r.sched, id)
		child, cerr := r.valRec(depth+1, cs)
		r.sched = r.sched[:len(r.sched)-1]
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
		if renderValue(r.rename(v.v, r.perms[pi])) != v.key {
			return true
		}
	}
	return false
}

// closureValues closes the root's reduced value set under the whole
// group and renders it sorted, matching ValencyReport.Values of the
// unreduced engine.
func (r *reducer) closureValues(vals []rval) []string {
	set := make(map[string]bool)
	for _, rv := range vals {
		if r.rename == nil {
			set[rv.key] = true
			continue
		}
		for _, p := range r.perms {
			set[renderValue(r.rename(rv.v, p))] = true
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
