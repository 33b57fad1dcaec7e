package detobj

import (
	"math/rand"

	"detobj/internal/bgsim"
	"detobj/internal/chaos"
	"detobj/internal/consensus"
	"detobj/internal/core"
	"detobj/internal/election"
	"detobj/internal/immediate"
	"detobj/internal/iterated"
	"detobj/internal/linearize"
	"detobj/internal/modelcheck"
	"detobj/internal/recoverable"
	"detobj/internal/renaming"
	"detobj/internal/safeagreement"
	"detobj/internal/setconsensus"
	"detobj/internal/sim"
	"detobj/internal/snapshot"
	"detobj/internal/tasks"
	"detobj/internal/universal"
	"detobj/internal/wrn"
)

// Simulator types: the asynchronous shared-memory model.
type (
	// Config describes one simulated run; see sim.Config.
	Config = sim.Config
	// Program is the sequential code of one simulated process.
	Program = sim.Program
	// Ctx is a process's handle to the simulated world.
	Ctx = sim.Ctx
	// Value is the domain of object states and operation values.
	Value = sim.Value
	// Object is a shared object (a sequential state machine).
	Object = sim.Object
	// Invocation is one operation request.
	Invocation = sim.Invocation
	// Response is an operation's outcome.
	Response = sim.Response
	// Result is a run's outcome.
	Result = sim.Result
	// Scheduler chooses the interleaving.
	Scheduler = sim.Scheduler
	// Trace is a run's recorded event history.
	Trace = sim.Trace
)

// Run executes one simulated run; see sim.Run.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// NewRoundRobin returns the fair cyclic scheduler.
func NewRoundRobin() Scheduler { return sim.NewRoundRobin() }

// NewRandomScheduler returns the seeded uniform scheduler.
func NewRandomScheduler(seed int64) Scheduler { return sim.NewRandom(seed) }

// NewSeededSource returns the source behind the random scheduler and
// Env.Rand: it draws what rand.NewSource(seed) draws, but seeds in O(1).
func NewSeededSource(seed int64) rand.Source64 { return sim.NewSource(seed) }

// NewFixedSchedule returns a scheduler replaying the given process order.
func NewFixedSchedule(order ...int) Scheduler { return sim.NewFixed(order...) }

// NewCrashingScheduler wraps inner so the listed processes are never
// scheduled again — the model's crash failures.
func NewCrashingScheduler(inner Scheduler, crashed ...int) Scheduler {
	return sim.NewCrashing(inner, crashed...)
}

// Amnesiac crash-restart fault model (see internal/sim/fault.go).
type (
	// Fault is one injected fault directive.
	Fault = sim.Fault
	// FaultKind names a fault directive's effect.
	FaultKind = sim.FaultKind
	// FaultInjector is the optional scheduler interface that injects
	// crash and restart directives into a run.
	FaultInjector = sim.FaultInjector
	// RecoverableObject is a shared object that splits its state into
	// durable and volatile halves; the volatile half is wiped when its
	// owner crashes.
	RecoverableObject = sim.Recoverable
	// RecoveryProc is the per-process recovery step the runtime runs
	// before a restarted incarnation resumes its program.
	RecoveryProc = sim.RecoveryProc
)

// Fault directive kinds.
const (
	FaultCrash   = sim.FaultCrash
	FaultRestart = sim.FaultRestart
)

// WRN objects (paper §3).
type (
	// WRN is the deterministic WriteAndReadNext object WRN_k.
	WRN = wrn.Object
	// OneShotWRN is the one-shot variant 1sWRN_k.
	OneShotWRN = wrn.OneShot
	// WRNRef is a typed handle to a (1s)WRN object in a run.
	WRNRef = wrn.Ref
	// WRNImpl is Algorithm 5: linearizable 1sWRN_k from strong set
	// election and registers.
	WRNImpl = wrn.Impl
	// RelaxedWRN is Algorithm 4's flag-guarded relaxed WRN_k wrapper.
	RelaxedWRN = wrn.Relaxed
	// WRNOperator abstracts anything offering the WRN operation — the
	// atomic object or an Algorithm 5 implementation.
	WRNOperator = wrn.Operator
)

// Bottom is the distinguished ⊥ value of WRN cells.
var Bottom = wrn.Bottom

// IsBottom reports whether v is ⊥.
func IsBottom(v Value) bool { return wrn.IsBottom(v) }

// NewWRN returns a fresh WRN_k object.
func NewWRN(k int) *WRN { return wrn.New(k) }

// NewOneShotWRN returns a fresh 1sWRN_k object.
func NewOneShotWRN(k int) *OneShotWRN { return wrn.NewOneShot(k) }

// Set consensus (paper §2, §4, §7.1).
type (
	// SetConsensusObject is the nondeterministic (n,k)-set consensus
	// object.
	SetConsensusObject = setconsensus.Object
	// Alg3 is the (k−1)-set consensus protocol for k participants out of
	// a large name space.
	Alg3 = setconsensus.Alg3
	// Alg6 is the m-set consensus protocol for n processes from WRN_k.
	Alg6 = setconsensus.Alg6
	// IndexFamily is Algorithm 3's family of index mappings.
	IndexFamily = setconsensus.IndexFamily
)

// NewSetConsensusObject returns a fresh (n,k)-set consensus object.
func NewSetConsensusObject(n, k int) *SetConsensusObject { return setconsensus.NewObject(n, k) }

// NewAlg2 registers a 1sWRN_k object and returns the k Algorithm 2
// programs, one per proposal.
func NewAlg2(objects map[string]Object, name string, vs []Value) []Program {
	return setconsensus.NewAlg2(objects, name, vs)
}

// NewAlg3 registers Algorithm 3's shared state and returns the protocol.
func NewAlg3(objects map[string]Object, name string, k, m int, family IndexFamily) Alg3 {
	a, _ := setconsensus.NewAlg3(objects, name, k, m, family)
	return a
}

// CoveringFamily returns the compact index-mapping family for Algorithm 3.
func CoveringFamily(k int) IndexFamily { return setconsensus.CoveringFamily(k) }

// NewAlg6 registers Algorithm 6's objects and returns the protocol.
func NewAlg6(objects map[string]Object, name string, n, k int) Alg6 {
	return setconsensus.NewAlg6(objects, name, n, k)
}

// Alg6Guarantee returns the agreement bound Algorithm 6 achieves.
func Alg6Guarantee(n, k int) int { return setconsensus.Guarantee(n, k) }

// NewWRNImpl registers Algorithm 5's shared state and returns the
// linearizable 1sWRN_k implementation.
func NewWRNImpl(objects map[string]Object, name string, k int) WRNImpl {
	return wrn.NewImpl(objects, name, k)
}

// NewWRNImplFromRegisters registers the registers-only variant of
// Algorithm 5 (strong set election implemented from snapshots rather
// than taken as an atomic object).
func NewWRNImplFromRegisters(objects map[string]Object, name string, k int) WRNImpl {
	return wrn.NewImplFromRegisters(objects, name, k)
}

// NewRelaxedWRN registers a fresh 1sWRN_k plus its k flag counters and
// returns Algorithm 4's relaxed handle along with the underlying
// one-shot object (exposed so callers can verify legal use).
func NewRelaxedWRN(objects map[string]Object, name string, k int) (RelaxedWRN, *OneShotWRN) {
	return wrn.NewRelaxed(objects, name, k)
}

// NewRelaxedWRNOver builds Algorithm 4's relaxed wrapper over an
// arbitrary WRN operator, registering only the flag counters.
func NewRelaxedWRNOver(objects map[string]Object, name string, k int, op WRNOperator) RelaxedWRN {
	return wrn.NewRelaxedOver(objects, name, k, op)
}

// NewAlg3Over registers Algorithm 3's shared state with a caller-chosen
// relaxed-WRN factory per instance — e.g. to run the protocol over
// implemented rather than atomic objects.
func NewAlg3Over(objects map[string]Object, name string, k, m int, family IndexFamily, mk func(instName string, k int) RelaxedWRN) Alg3 {
	return setconsensus.NewAlg3Over(objects, name, k, m, family, mk)
}

// NewStrongElection returns the (k, k−1)-strong set election object.
func NewStrongElection(k int) Object { return election.NewStrongObject(k) }

// NewRenaming registers a wait-free M-to-(2k−1) renaming protocol.
func NewRenaming(objects map[string]Object, name string, m int) renaming.Protocol {
	return renaming.New(objects, name, m)
}

// NewRenamingFromRegisters registers the registers-only renaming
// variant (snapshot implemented from registers, not atomic).
func NewRenamingFromRegisters(objects map[string]Object, name string, m int) renaming.Protocol {
	return renaming.NewFromRegisters(objects, name, m)
}

// Snapshot objects.
type (
	// SnapshotObject is the atomic n-component snapshot object.
	SnapshotObject = snapshot.Object
	// SnapshotImpl is the Afek et al. wait-free snapshot implementation
	// from registers.
	SnapshotImpl = snapshot.Impl
	// Snapshotter is the common update/scan interface of both.
	Snapshotter = snapshot.Snapshotter
)

// NewSnapshotObject returns a fresh atomic snapshot object (not yet
// registered in any run's object map).
func NewSnapshotObject(n int, initial Value) *SnapshotObject { return snapshot.NewObject(n, initial) }

// NewSnapshotImpl registers the register-based snapshot implementation
// and returns its handle.
func NewSnapshotImpl(objects map[string]Object, name string, n int, initial Value) SnapshotImpl {
	return snapshot.NewImpl(objects, name, n, initial)
}

// NewSnapshot registers an atomic snapshot object and returns its handle.
func NewSnapshot(objects map[string]Object, name string, n int, initial Value) Snapshotter {
	return snapshot.NewObjectHandle(objects, name, n, initial)
}

// Election-to-consensus reduction.
type (
	// ElectionProposer abstracts the propose step of an election object.
	ElectionProposer = election.Proposer
	// ConsensusFromElection is the consensus protocol built over a
	// strong election object.
	ConsensusFromElection = election.ConsensusFromElection
)

// NewConsensusFromElection registers the reduction from n-process
// consensus to strong election.
func NewConsensusFromElection(objects map[string]Object, name string, n int, elect ElectionProposer) ConsensusFromElection {
	return election.NewConsensusFromElection(objects, name, n, elect)
}

// UniversalConstruction is Herlihy's universal construction driven by
// consensus objects.
type UniversalConstruction = universal.Construction

// NewUniversal registers a universal construction for n processes over
// at most maxCells consensus cells, implementing the sequential spec.
func NewUniversal(objects map[string]Object, name string, n, maxCells int, spec LinSpec) UniversalConstruction {
	return universal.New(objects, name, n, maxCells, spec)
}

// Classic consensus objects (comparison points for the hierarchy).

// NewQueue returns a sequential FIFO queue object seeded with items.
func NewQueue(items ...Value) Object { return consensus.NewQueue(items...) }

// NewFetchAdd returns a fetch-and-add counter object.
func NewFetchAdd(initial int) Object { return consensus.NewFetchAdd(initial) }

// NewSwap returns a swap (read-modify-write exchange) object.
func NewSwap(initial Value) Object { return consensus.NewSwap(initial) }

// NewTestAndSet returns a one-shot test-and-set object.
func NewTestAndSet() Object { return consensus.NewTestAndSet() }

// NewConsensusCell returns an n-process write-once consensus cell.
func NewConsensusCell(n int) Object { return consensus.NewCell(n) }

// Tasks and checking.
type (
	// Task judges decision vectors.
	Task = tasks.Task
	// Outcome is a run's inputs and decisions.
	Outcome = tasks.Outcome
	// SetConsensusTask is the k-set consensus task.
	SetConsensusTask = tasks.SetConsensus
)

// OutcomeFromResult assembles an Outcome from a run result.
func OutcomeFromResult(res *Result, participants map[int]Value) Outcome {
	return tasks.OutcomeFromResult(res, participants)
}

// Linearizability checking.
type (
	// LinOp is one completed operation interval.
	LinOp = linearize.Op
	// LinSpec is a sequential specification.
	LinSpec = linearize.Spec
)

// LinOps extracts the completed logical operations on an object from a
// trace.
func LinOps(t Trace, object string) []LinOp { return linearize.Ops(t, object) }

// LinCheck searches for a linearization of ops under spec.
func LinCheck(spec LinSpec, ops []LinOp) bool { return linearize.Check(spec, ops).OK }

// WRNSpec returns the sequential specification of 1sWRN_k for LinCheck.
func WRNSpec(k int) LinSpec { return wrn.Spec(k) }

// Model checking.
type (
	// Factory builds fresh configurations for exhaustive exploration.
	Factory = modelcheck.Factory
	// Execution is one explored complete run.
	Execution = modelcheck.Execution
)

// Explore enumerates every execution of the configuration.
func Explore(f Factory, limit int, visit func(e Execution) error) (int, error) {
	return modelcheck.Explore(f, limit, visit)
}

// Hierarchy calculus (the paper's primary contribution).
type (
	// SetCons identifies an (N,K)-set consensus object.
	SetCons = core.SetCons
	// Ordering compares synchronization power.
	Ordering = core.Ordering
	// Family is the O(n,k) hierarchy at consensus level n.
	Family = core.Family
)

// Power-comparison orderings.
const (
	Equivalent   = core.Equivalent
	Stronger     = core.Stronger
	Weaker       = core.Weaker
	Incomparable = core.Incomparable
)

// Implements reports Theorem 41: whether (n,k)-set consensus is wait-free
// implementable from (m,j)-set consensus objects and registers.
func Implements(m, j, n, k int) bool { return core.Implements(m, j, n, k) }

// MinAgreement returns the optimal agreement bound for n processes from
// (m,j)-set consensus objects and registers.
func MinAgreement(n, m, j int) int { return core.MinAgreement(n, m, j) }

// Compare orders two set-consensus objects by implementability.
func Compare(a, b SetCons) Ordering { return core.Compare(a, b) }

// WRNEquivalent returns (k,k−1)-set consensus, the power of 1sWRN_k
// (Theorem 2).
func WRNEquivalent(k int) SetCons { return core.WRNEquivalent(k) }

// WRNConsensusNumber returns WRN_k's consensus number (Theorem 1).
func WRNConsensusNumber(k int) int { return core.WRNConsensusNumber(k) }

// NewSafeAgreement registers a Borowsky–Gafni safe-agreement instance for
// n proposer slots (the BG simulation building block).
func NewSafeAgreement(objects map[string]Object, name string, n int) safeagreement.Instance {
	return safeagreement.New(objects, name, n)
}

// BGProtocol is a round-based snapshot protocol for the BG simulation.
type BGProtocol = bgsim.Protocol

// NewBGSimulation registers a BG simulation of len(inputs) simulated
// processes by n simulators.
func NewBGSimulation(objects map[string]Object, name string, n int, inputs []Value, proto BGProtocol) bgsim.Simulation {
	return bgsim.New(objects, name, n, inputs, proto, 0)
}

// NewImmediateSnapshot registers a one-shot immediate snapshot instance
// for n participant slots.
func NewImmediateSnapshot(objects map[string]Object, name string, n int) immediate.Protocol {
	return immediate.New(objects, name, n)
}

// NewIteratedSnapshot registers an n-participant, r-round iterated
// immediate snapshot instance.
func NewIteratedSnapshot(objects map[string]Object, name string, n, rounds int) iterated.Protocol {
	return iterated.New(objects, name, n, rounds)
}

// PowerClasses partitions the set-consensus objects with n ≤ maxN into
// equivalence classes under mutual implementability; every class turns
// out to be a singleton — the paper's "wealth", quantified.
func PowerClasses(maxN int) [][]SetCons { return core.Classes(maxN) }

// Chaos harness: deterministic fault injection in the simulator (see
// internal/chaos and README.md, "Robustness & chaos testing").
type (
	// ChaosReport is the structured, seed-reproducible outcome of a
	// chaos run.
	ChaosReport = chaos.Report
	// ChaosInjection is one recorded fault.
	ChaosInjection = chaos.Injection
)

// NewChaosReport returns an empty report for the given seed.
func NewChaosReport(seed int64) *ChaosReport { return chaos.NewReport(seed) }

// NewCrashDuringOp returns the adversary that kills victim after it has
// taken depth base-object steps inside a logical operation, leaving its
// partial writes visible.
func NewCrashDuringOp(inner Scheduler, r *ChaosReport, victim, depth int) Scheduler {
	return chaos.NewCrashDuringOp(inner, r, victim, depth)
}

// NewCrashRecovery returns the adversary that crashes victim at step
// crashAt and lets it re-enter, with its id and local state, window steps
// later.
func NewCrashRecovery(inner Scheduler, r *ChaosReport, victim, crashAt, window int) Scheduler {
	return chaos.NewCrashRecovery(inner, r, victim, crashAt, window)
}

// NewCrashRestart returns the single-crash amnesiac-restart adversary:
// victim crashes at step crashAt, losing all volatile state, and re-runs
// its program from the top (behind Config.Recovery) window steps later.
func NewCrashRestart(inner Scheduler, r *ChaosReport, victim, crashAt, window int) Scheduler {
	return chaos.NewCrashRestart(inner, r, victim, crashAt, window)
}

// NewRepeatedCrashRestart returns the repeated amnesiac-restart
// adversary: victim is crashed after every depth of its own steps,
// restarted window steps later, times crashes in total.
func NewRepeatedCrashRestart(inner Scheduler, r *ChaosReport, victim, depth, window, times int) Scheduler {
	return chaos.NewRepeatedCrashRestart(inner, r, victim, depth, window, times)
}

// NewAdaptiveRestart returns the seeded, history-driven amnesiac
// adversary: it arms crashes as operations open and fires them
// mid-operation, up to maxCrashes in total, always restarting victims.
func NewAdaptiveRestart(inner Scheduler, r *ChaosReport, seed int64, maxCrashes int) Scheduler {
	return chaos.NewAdaptiveRestart(inner, r, seed, maxCrashes)
}

// Recoverable objects for the amnesiac crash-restart model (see
// internal/recoverable and experiments E19/E20).

// NewRecoverableRegister returns the recoverable register: writes stage
// in a volatile per-process buffer and survive a crash only once
// explicitly persisted.
func NewRecoverableRegister(initial Value) Object { return recoverable.NewRegister(initial) }

// NewRecoverableTestAndSet returns the recoverable test-and-set: the
// winner's identity is durable and "tas" is idempotent per process, so a
// restarted winner re-learns its win.
func NewRecoverableTestAndSet() Object { return recoverable.NewTestAndSet() }

// NewVolatileScratch returns an all-volatile per-process scratchpad;
// algorithm code routes volatile local state through one so crashes wipe
// it deterministically.
func NewVolatileScratch() Object { return recoverable.NewScratch() }

// RecoverableWRN is the journaled recoverable WRN_k handle.
type RecoverableWRN = recoverable.WRN

// NewRecoverableWRN registers a recoverable WRN_k (durable journaled
// core plus volatile response cache) and returns its handle; its
// Recovery method yields the RecoveryProc that re-derives the cache from
// the journal.
func NewRecoverableWRN(objects map[string]Object, name string, k int) RecoverableWRN {
	return recoverable.NewWRN(objects, name, k)
}

// NewStall returns the adversary that starves victim during scheduler
// steps [from, from+window).
func NewStall(inner Scheduler, r *ChaosReport, victim, from, window int) Scheduler {
	return chaos.NewStall(inner, r, victim, from, window)
}

// NewAdaptiveAdversary returns the seeded, history-driven adversary.
func NewAdaptiveAdversary(seed int64, r *ChaosReport) Scheduler {
	return chaos.NewAdaptive(seed, r)
}

// InstrumentScheduler wraps a scheduler stack (outermost) so every
// scheduled step lands in the report's per-process histogram.
func InstrumentScheduler(sched Scheduler, r *ChaosReport) Scheduler {
	return chaos.Instrument(sched, r)
}

// Bounded-wait graceful degradation: the sanctioned crossing of the
// paper's hang-on-exhaustion boundary. See DESIGN.md for why degrading
// detectably changes an object's power.

// ErrExhausted is the typed error a Bounded wrapper returns when the
// inner object would hang the caller or the caller's step budget is
// spent. errors.Is(err, ErrExhausted) identifies it across the facade.
//
//detlint:allow hangsemantics re-export of the documented hang-vs-error boundary sentinel
var ErrExhausted = chaos.ErrExhausted

// NewBounded wraps a simulator object so that hangs and over-budget
// callers receive ErrExhausted instead of parking forever. budget bounds
// each process's steps through the wrapper; 0 means unlimited.
func NewBounded(inner Object, budget int) Object { return chaos.NewBounded(inner, budget) }

// Exhausted reports whether a value returned through a Bounded wrapper
// is the typed exhaustion error.
func Exhausted(v Value) bool { return chaos.Exhausted(v) }
