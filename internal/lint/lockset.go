package lint

// lockset.go computes the must-hold lockset of every statement in a
// function: the set of mutexes that are locked on *every* path from the
// entry to that statement. The fact is deliberately a must-analysis —
// joins intersect — so a guard is only credited when it is
// unconditional, which is the direction a lint must err in: a field
// access guarded on one path and bare on another is unguarded.
//
// Lock identity is the *types.Var of the mutex (a struct field or a
// local/package variable), abstracting over instances: s.mu and t.mu of
// the same struct type are the same lock. That is exactly the
// granularity the lock-order graph needs — deadlock cycles between
// *fields* are real regardless of which instances are involved — and it
// keeps the analysis instance-insensitive and cheap.
//
// Deferred unlocks are ignored: a deferred Unlock runs at return, so
// within the body the lock stays held, which is precisely what the
// must-hold fact should say. TryLock never generates (its success is
// conditional). Calls are not transparent here — interprocedural
// effects are the lockorder rule's job, via the per-call-site held sets
// this file records.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockFacts is the result of the must-hold lockset analysis over one
// function body.
type LockFacts struct {
	// Before maps each block-member statement to the must-hold set in
	// effect immediately before the statement executes.
	Before map[ast.Stmt][]*types.Var
	// Acquires lists every unconditional acquisition site in source
	// order.
	Acquires []LockAcquire
	// Calls lists every call expression evaluated at a block position,
	// with the must-hold set at the site, in source order.
	Calls []LockedCall
}

// LockAcquire is one Lock/RLock call site.
type LockAcquire struct {
	// Lock is the mutex being acquired.
	Lock *types.Var
	// Held is the must-hold set immediately before the acquisition
	// (never contains Lock unless the function re-acquires).
	Held []*types.Var
	// Read reports an RLock.
	Read bool
	// Pos is the call position.
	Pos token.Pos
}

// LockedCall is one call expression with the locks held at the site.
type LockedCall struct {
	// Call is the call expression.
	Call *ast.CallExpr
	// Held is the must-hold set at the call.
	Held []*types.Var
}

// ComputeLockFacts runs the dataflow over a function body's CFG.
func ComputeLockFacts(pkg *Package, cfg *CFG) *LockFacts {
	lf := &LockFacts{Before: make(map[ast.Stmt][]*types.Var)}

	in := make(map[*Block][]*types.Var)
	reached := map[*Block]bool{cfg.Entry: true}
	in[cfg.Entry] = nil

	// Fixed point: propagate out-states along edges, intersecting at
	// joins. Unreached blocks are ⊤ (identity of intersection).
	work := []*Block{cfg.Entry}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		out := transferLocks(pkg, b, in[b], nil)
		for _, s := range b.Succs {
			var next []*types.Var
			if !reached[s] {
				next = out
			} else {
				next = intersectLocks(in[s], out)
			}
			if !reached[s] || !equalLocks(in[s], next) {
				reached[s] = true
				in[s] = next
				work = append(work, s)
			}
		}
	}

	// Recording pass: with the solution fixed, walk blocks in index
	// order so Before, Acquires, and Calls come out in deterministic
	// source order.
	for _, b := range cfg.Blocks {
		if !reached[b] {
			continue
		}
		transferLocks(pkg, b, in[b], lf)
	}
	sort.Slice(lf.Acquires, func(i, j int) bool { return lf.Acquires[i].Pos < lf.Acquires[j].Pos })
	sort.Slice(lf.Calls, func(i, j int) bool { return lf.Calls[i].Call.Pos() < lf.Calls[j].Call.Pos() })
	return lf
}

// transferLocks pushes a must-hold set through one block. When rec is
// non-nil the pass also records per-statement facts and events.
func transferLocks(pkg *Package, b *Block, held []*types.Var, rec *LockFacts) []*types.Var {
	for _, st := range b.Stmts {
		if rec != nil {
			if _, seen := rec.Before[st]; !seen {
				rec.Before[st] = held
			}
		}
		// Deferred and spawned calls do not execute at this position.
		switch st.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			continue
		}
		cur := held
		inspectShallow(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if rec != nil {
				rec.Calls = append(rec.Calls, LockedCall{Call: call, Held: cur})
			}
			lock, op := mutexOp(pkg, call)
			if lock == nil {
				return true
			}
			switch op {
			case "Lock", "RLock":
				if rec != nil {
					rec.Acquires = append(rec.Acquires, LockAcquire{
						Lock: lock, Held: cur, Read: op == "RLock", Pos: call.Pos(),
					})
				}
				cur = addLock(cur, lock)
			case "Unlock", "RUnlock":
				cur = delLock(cur, lock)
			}
			return true
		})
		held = cur
	}
	return held
}

// mutexOp recognizes a sync.Mutex/RWMutex method call and resolves the
// receiver to its variable. op is one of Lock/RLock/Unlock/RUnlock;
// TryLock/TryRLock return op == "" (conditional acquisition never
// generates a must-hold fact).
func mutexOp(pkg *Package, call *ast.CallExpr) (*types.Var, string) {
	fn := resolvedFunc(pkg, call)
	if !isMethod(fn, "sync", "Lock", "RLock", "Unlock", "RUnlock") {
		return nil, ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	if v := lockVar(pkg, sel.X); v != nil {
		return v, fn.Name()
	}
	return nil, ""
}

// lockVar resolves a mutex receiver expression (s.mu, mu, w.inner.mu)
// to the variable naming the mutex — the innermost field or the plain
// variable.
func lockVar(pkg *Package, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := pkg.Info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
			return nil
		}
		// Qualified package-level mutex: pkgname.mu.
		v, _ := pkg.Info.Uses[e.Sel].(*types.Var)
		return v
	}
	return nil
}

// ---- Lock-set algebra (sorted slices, position order) -----------------

func lockLess(a, b *types.Var) bool {
	if a.Pos() != b.Pos() {
		return a.Pos() < b.Pos()
	}
	return a.Name() < b.Name()
}

func hasLock(set []*types.Var, v *types.Var) bool {
	for _, x := range set {
		if x == v {
			return true
		}
	}
	return false
}

// addLock returns set ∪ {v} without mutating set.
func addLock(set []*types.Var, v *types.Var) []*types.Var {
	if hasLock(set, v) {
		return set
	}
	out := make([]*types.Var, 0, len(set)+1)
	out = append(out, set...)
	out = append(out, v)
	sort.Slice(out, func(i, j int) bool { return lockLess(out[i], out[j]) })
	return out
}

// delLock returns set \ {v} without mutating set.
func delLock(set []*types.Var, v *types.Var) []*types.Var {
	if !hasLock(set, v) {
		return set
	}
	out := make([]*types.Var, 0, len(set)-1)
	for _, x := range set {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func intersectLocks(a, b []*types.Var) []*types.Var {
	var out []*types.Var
	for _, x := range a {
		if hasLock(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func equalLocks(a, b []*types.Var) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
