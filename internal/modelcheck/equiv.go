package modelcheck

import (
	"fmt"
	"sort"

	"detobj/internal/sim"
)

// Finite is a deterministic object with an enumerable state space:
// serializable state and deep copies. The registers, wrn and consensus
// packages implement it for their objects.
//
// StateKey and CloneObject must be read-only on the receiver: the
// checker keys and clones states it has already enumerated, and only
// ever invokes Apply on a fresh clone.
type Finite interface {
	sim.Object
	// StateKey serializes the current state; equal keys mean equal states.
	StateKey() string
	// CloneObject returns a deep copy; the result must itself be Finite.
	CloneObject() sim.Object
}

// resetter is an object the tree-search engine re-arms between runs
// (see Factory). Reset must allocate nothing.
type resetter interface{ Reset() }

// transition is one cell of the precomputed step table: the successor
// state and the interned output token of applying one alphabet operation
// in one reachable state. It is deliberately flat — two int32 indices,
// no interior pointers — because it is the seed of the ROADMAP's arena
// encoding for the state-space engines; detlint's arenaready rule
// machine-checks that flatness on every build.
//
//detlint:arena
type transition struct {
	// succ indexes the sorted state list.
	succ int32
	// out is the interned output token, or hangOut.
	out int32
}

// hangOut is the output of an operation that hangs its caller. It lies
// outside the interned ids, so no value an object answers can collide
// with it. A hung operation's successor is its own state.
const hangOut int32 = -1

// stateTable is the transition system of a state space closed under the
// alphabet: states in sorted-key order, rows[i][j] the result of
// alphabet[j] in state i. Every downstream analysis — partition
// refinement and the Lemma 38 pair loop — runs on these int32 indices
// instead of re-cloning objects and re-rendering outputs per visit.
type stateTable struct {
	keys   []string
	states []Finite
	rows   [][]transition
}

// sweep enumerates the closure of seeds under alphabet breadth-first
// and records its transition table as it goes. Each (state, operation)
// is stepped exactly once, on a fresh clone, and each successor keyed
// once; a hang leaves the state unchanged and is not keyed again.
// Outputs are interned by their fmt.Sprint text, so two outputs are
// equal exactly when they print alike. The queue runs frontier by
// frontier, so the maxStates guard (0 means 1<<16) fires exactly when
// the closure exceeds it. At the end the states are renumbered into
// sorted-key order, the order every report walks them in.
func sweep(seeds []Finite, alphabet []sim.Invocation, maxStates int) (*stateTable, error) {
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	var (
		ids    = make(map[string]int32)
		keys   []string
		states []Finite
		flat   []transition // discovery order, len(alphabet) per state
		outs   = make(map[string]int32)
		text   []byte
		env    = &sim.Env{}
	)
	for _, s := range seeds {
		k := s.StateKey()
		if _, seen := ids[k]; seen {
			continue
		}
		if len(keys) >= maxStates {
			return nil, stateLimitError(maxStates)
		}
		ids[k] = int32(len(keys))
		keys = append(keys, k)
		states = append(states, s)
	}
	for d := 0; d < len(states); d++ {
		for _, inv := range alphabet {
			next := states[d].CloneObject().(Finite)
			resp := next.Apply(env, inv)
			tr := transition{succ: int32(d), out: hangOut}
			if resp.Effect != sim.Hang {
				k := next.StateKey()
				succ, seen := ids[k]
				if !seen {
					if len(keys) >= maxStates {
						return nil, stateLimitError(maxStates)
					}
					succ = int32(len(keys))
					ids[k] = succ
					keys = append(keys, k)
					states = append(states, next)
				}
				text = sim.AppendSprint(text[:0], resp.Value)
				out, seen := outs[string(text)]
				if !seen {
					out = int32(len(outs))
					outs[string(text)] = out
				}
				tr.succ, tr.out = succ, out
			}
			flat = append(flat, tr)
		}
	}
	return renumber(keys, states, flat, len(alphabet)), nil
}

// stateLimitError is the error of a closure that outgrows maxStates.
func stateLimitError(maxStates int) error {
	return fmt.Errorf("modelcheck: state space exceeds %d states", maxStates)
}

// renumber sorts the swept states by key and rewrites the table, every
// successor included, into that order.
func renumber(keys []string, states []Finite, flat []transition, width int) *stateTable {
	n := len(keys)
	order := make([]int32, n) // sorted position -> discovery id
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	rank := make([]int32, n)
	for r, d := range order {
		rank[d] = int32(r)
	}
	t := &stateTable{keys: make([]string, n), states: make([]Finite, n), rows: make([][]transition, n)}
	sorted := make([]transition, n*width)
	for r, d := range order {
		t.keys[r], t.states[r] = keys[d], states[d]
		row := sorted[r*width : (r+1)*width]
		for j, tr := range flat[int(d)*width : (int(d)+1)*width] {
			tr.succ = rank[tr.succ]
			row[j] = tr
		}
		t.rows[r] = row
	}
	return t
}

// Reachable returns all states reachable from init by applying operations
// from alphabet, keyed by StateKey. maxStates guards against unbounded
// spaces (0 means 1<<16).
func Reachable(init Finite, alphabet []sim.Invocation, maxStates int) (map[string]Finite, error) {
	t, err := sweep([]Finite{init}, alphabet, maxStates)
	if err != nil {
		return nil, err
	}
	states := make(map[string]Finite, len(t.keys))
	for i, k := range t.keys {
		states[k] = t.states[i]
	}
	return states, nil
}

// ObsClasses partitions states into observational-equivalence classes
// with respect to the operation alphabet: two states are equivalent iff no
// sequence of operations can produce different outputs from them. It is
// the standard partition-refinement (bisimulation) computation; since the
// objects are deterministic, observational equivalence and bisimilarity
// coincide.
//
// The partition covers the closure of states under the alphabet, so the
// result also classifies every state they lead to; a set returned by
// Reachable is already closed. A closure of more than 1<<16 states is
// refused with Reachable's error.
func ObsClasses(states map[string]Finite, alphabet []sim.Invocation) (map[string]int, error) {
	keys := make([]string, 0, len(states))
	for k := range states {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seeds := make([]Finite, len(keys))
	for i, k := range keys {
		seeds[i] = states[k]
	}
	t, err := sweep(seeds, alphabet, 0)
	if err != nil {
		return nil, err
	}
	class := t.obsClasses()
	out := make(map[string]int, len(t.keys))
	for i, k := range t.keys {
		out[k] = int(class[i])
	}
	return out, nil
}

// obsClasses is the partition refinement over the precomputed table.
// A round renders each state's signature — the (output, successor-class)
// row across the alphabet — as packed int32 bytes into one reused
// buffer; class ids are assigned first-seen in sorted-key order, exactly
// as the string-signature refinement assigned them, so the resulting
// partition (and every report built on it) is unchanged.
func (t *stateTable) obsClasses() []int32 {
	n := len(t.keys)
	class := make([]int32, n)
	next := make([]int32, n)
	var buf []byte
	for {
		sigs := make(map[string]int32, n)
		for i := 0; i < n; i++ {
			buf = buf[:0]
			for _, tr := range t.rows[i] {
				buf = appendInt32(buf, tr.out)
				buf = appendInt32(buf, class[tr.succ])
			}
			id, ok := sigs[string(buf)]
			if !ok {
				id = int32(len(sigs))
				sigs[string(buf)] = id
			}
			next[i] = id
		}
		same := true
		for i := range class {
			if class[i] != next[i] {
				same = false
				break
			}
		}
		if same {
			return next
		}
		class, next = next, class
	}
}

// appendInt32 appends v's four little-endian bytes.
func appendInt32(b []byte, v int32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// PairFailure records a violation of the Lemma 38 obligations: a reachable
// state and a pair of pending operations such that BOTH issuing processes
// can distinguish the execution orders. An object with no failures cannot
// escape the critical-configuration argument — it cannot solve 2-process
// consensus — while each failure pinpoints exactly the synchronization
// power a stronger object (SWAP, test-and-set, a consensus cell) exposes.
type PairFailure struct {
	// State is the state key of the critical configuration.
	State string
	// A is the pending operation of the first process, B of the second.
	A, B sim.Invocation
}

// String renders the failure.
func (p PairFailure) String() string {
	return fmt.Sprintf("state %s: %s vs %s distinguishable by both", p.State, p.A, p.B)
}

// IndistReport is the outcome of CheckIndistinguishability.
type IndistReport struct {
	// States is the size of the reachable state space.
	States int
	// Pairs is the number of (state, opA, opB) triples checked.
	Pairs int
	// Failures lists the triples where some issuer survives both orders
	// yet observes them differently — genuine synchronization power.
	Failures []PairFailure
	// Degenerate lists the triples where neither issuer survives both
	// orders (a hang is involved) and no indistinguishability holds: the
	// plain critical-configuration argument is inapplicable there, but the
	// pair yields no distinguishing survivor either. One-shot objects
	// produce these on repeated-index pairs.
	Degenerate []PairFailure
}

// Passed reports whether the object exposed no distinguishing pair: no
// process can both survive a pending-operation race and observe its order,
// which is the engine of every 2-consensus protocol.
func (r *IndistReport) Passed() bool { return len(r.Failures) == 0 }

// Clean reports whether additionally no degenerate pairs occurred, i.e.
// the textbook critical-configuration argument of Lemma 38 applies
// verbatim (true for multi-shot WRN_k with k ≥ 3 and for registers).
func (r *IndistReport) Clean() bool { return r.Passed() && len(r.Degenerate) == 0 }

// CheckIndistinguishability mechanizes Lemma 38's case analysis. For every
// reachable state S and operations a (by process P) and b (by process Q)
// it checks that at least one process cannot distinguish the two orders:
//
//	P cannot distinguish if its response to a is the same whether or not b
//	precedes it, AND the configurations (S·a vs S·b·a, or S·a·b vs S·b·a)
//	are observationally equivalent;
//	symmetrically for Q.
//
// Observational equivalence is computed by ObsClasses over the full
// alphabet — the strongest observer — so a pass here is conservative.
//
// The reachable space is swept into a transition table once, so each
// verdict is a handful of index lookups. Per state, every ordered
// verdict is computed once into a reused buffer, and the pair loop reads
// both orders from it.
func CheckIndistinguishability(init Finite, alphabet []sim.Invocation, maxStates int) (*IndistReport, error) {
	t, err := sweep([]Finite{init}, alphabet, maxStates)
	if err != nil {
		return nil, err
	}
	class := t.obsClasses()
	m := len(alphabet)
	rep := &IndistReport{States: len(t.keys), Pairs: len(t.keys) * m * m}
	verdict := make([]pairVerdict, m*m) // verdict[a*m+b] = classify(s, a, b)
	for s := range t.keys {
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				verdict[a*m+b] = t.classify(class, int32(s), a, b)
			}
		}
		for a := 0; a < m; a++ {
			for b := 0; b < m; b++ {
				va, vb := verdict[a*m+b], verdict[b*m+a]
				if va == pairIndist || vb == pairIndist {
					continue // some issuer cannot distinguish: obligation met
				}
				f := PairFailure{State: t.keys[s], A: alphabet[a], B: alphabet[b]}
				if va == pairDistinguish || vb == pairDistinguish {
					rep.Failures = append(rep.Failures, f)
				} else {
					rep.Degenerate = append(rep.Degenerate, f)
				}
			}
		}
	}
	return rep, nil
}

type pairVerdict int

const (
	// pairIndist: the issuer of a survives both orders with identical
	// responses and observationally equivalent configurations.
	pairIndist pairVerdict = iota
	// pairDistinguish: the issuer survives both orders but can tell them
	// apart — consensus-grade power.
	pairDistinguish
	// pairDegenerate: the issuer hangs in at least one order, so it can
	// neither carry the indistinguishability argument nor act on the
	// difference.
	pairDegenerate
)

// classify judges how the process issuing alphabet[a] experiences the
// order of a and b from state s, entirely through table lookups.
// Indistinguishable means: same response either with b's step absorbed
// (overwriting, S·a ≡ S·b·a) or with both steps applied (commuting,
// S·a·b ≡ S·b·a). Interned output ids compare exactly as the rendered
// strings do, and class indexes the same partition ObsClasses computes.
func (t *stateTable) classify(class []int32, s int32, a, b int) pairVerdict {
	ta := t.rows[s][a]        // S·a: a's response and successor
	tb := t.rows[s][b]        // S·b: b's successor (a hang stays at S)
	tba := t.rows[tb.succ][a] // S·b·a: a's response after b
	if ta.out == hangOut || tba.out == hangOut {
		return pairDegenerate
	}
	if ta.out != tba.out {
		return pairDistinguish
	}
	if class[ta.succ] == class[tba.succ] {
		return pairIndist // overwriting: b's step is invisible to a's issuer
	}
	sab := t.rows[ta.succ][b].succ
	if class[sab] == class[tba.succ] {
		return pairIndist // commuting
	}
	return pairDistinguish
}

// WRNAlphabet builds the operation alphabet for a WRN_k object over a
// value domain of the given size, using distinct tagged values so that
// writes by different "processes" are distinguishable.
func WRNAlphabet(k, domain int) []sim.Invocation {
	var ops []sim.Invocation
	for i := 0; i < k; i++ {
		for v := 0; v < domain; v++ {
			ops = append(ops, sim.Invocation{Op: "WRN", Args: []sim.Value{i, fmt.Sprintf("v%d", v)}})
		}
	}
	return ops
}
