// Command hierarchy prints the synchronization-power tables of the
// reproduction: the Theorem 41 implementability matrix (E7), the WRN
// strength summary (E2), the 1sWRN hierarchy (E8), and the O(n,k)
// conjunction-object hierarchy with its separation witnesses (E10).
//
// Usage:
//
//	hierarchy [-exp e2|e7|e8|e10|all] [-max N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"detobj/internal/core"
)

func main() {
	exp := flag.String("exp", "all", "experiment to print: e2, e7, e8, e10, e17, hasse or all")
	maxN := flag.Int("max", 12, "largest system size in tables")
	flag.Parse()
	if err := run(os.Stdout, *exp, *maxN); err != nil {
		fmt.Fprintln(os.Stderr, "hierarchy:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, exp string, maxN int) error {
	if maxN < 2 {
		// E7's rows start at n = 2.
		return fmt.Errorf("-max must be at least 2, got %d", maxN)
	}
	type experiment struct {
		name string
		fn   func(io.Writer, int) error
	}
	all := []experiment{
		{"e2", expE2}, {"e7", expE7}, {"e8", expE8}, {"e10", expE10}, {"e17", expE17}, {"hasse", expHasse},
	}
	matched := false
	for _, e := range all {
		if exp == "all" || exp == e.name {
			matched = true
			if err := e.fn(w, maxN); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// expE2: WRN's place between registers and 2-consensus.
func expE2(w io.Writer, _ int) error {
	fmt.Fprintln(w, "E2  WRN_k sits strictly between registers and 2-consensus")
	fmt.Fprintln(w, "k   equivalent-task        consensus-number  solves-(k,k-1)  registers-can  implements-2-consensus")
	for k := 3; k <= 8; k++ {
		eq := core.WRNEquivalent(k)
		fmt.Fprintf(w, "%-3d %-22v %-17d %-15v %-14v %v\n",
			k, eq, core.WRNConsensusNumber(k),
			true,  // Algorithm 2, verified exhaustively in E1
			false, // k-set consensus is unsolvable from registers (BG/HS/SZ)
			core.Implements(eq.N, eq.K, 2, 1))
	}
	fmt.Fprintln(w)
	return nil
}

// expE7: the Theorem 41 implementability matrix.
func expE7(w io.Writer, maxN int) error {
	fmt.Fprintln(w, "E7  Theorem 41: (n,k)-set consensus from (m,j)-set consensus and registers")
	for _, src := range []core.SetCons{{N: 3, K: 2}, {N: 4, K: 3}, {N: 5, K: 4}, {N: 6, K: 2}} {
		fmt.Fprintf(w, "source %v — rows n = 2..%d, columns k = 1..n-1 (y = implementable)\n", src, maxN)
		matrix := core.ImplementabilityMatrix(src, maxN)
		for i, row := range matrix {
			fmt.Fprintf(w, "  n=%-3d ", i+2)
			for _, ok := range row {
				if ok {
					fmt.Fprint(w, "y ")
				} else {
					fmt.Fprint(w, ". ")
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// expE8: the 1sWRN hierarchy (Corollary 42).
func expE8(w io.Writer, maxN int) error {
	maxK := maxN
	if maxK < 6 {
		maxK = 6
	}
	fmt.Fprintln(w, "E8  Corollary 42: the 1sWRN hierarchy (rows/cols k = 3..N; cell = row vs column)")
	levels := core.WRNHierarchyLevels(maxK)
	fmt.Fprint(w, "      ")
	for j := range levels {
		fmt.Fprintf(w, "k=%-3d ", 3+j)
	}
	fmt.Fprintln(w)
	for i, row := range levels {
		fmt.Fprintf(w, "k=%-3d ", 3+i)
		for _, o := range row {
			fmt.Fprintf(w, "%-5s ", symbol(o))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  (> = strictly stronger, < = strictly weaker, = = equivalent)")
	fmt.Fprintln(w)
	return nil
}

func symbol(o core.Ordering) string {
	switch o {
	case core.Stronger:
		return ">"
	case core.Weaker:
		return "<"
	case core.Equivalent:
		return "="
	default:
		return "?"
	}
}

// expE10: the O(n,k) hierarchy of PODC'16 (reconstructed family). Every
// witness must separate — a non-separating row means the reconstructed
// hierarchy collapsed, so the experiment fails rather than printing a
// plausible table and exiting clean.
func expE10(w io.Writer, _ int) error {
	fmt.Fprintln(w, "E10 PODC'16: infinite strictly increasing hierarchies at every consensus level n >= 2")
	fmt.Fprintln(w, "    (reconstructed family O(n,k) = n-consensus ∧ (n·2^(k+1), 2)-set consensus)")
	fmt.Fprintln(w, "n   k   object                              cons-num  witness-procs  stronger-K  weaker-K  separated")
	unseparated := 0
	for n := 2; n <= 6; n++ {
		f := core.Family{N: n}
		for k := 1; k <= 4; k++ {
			member := f.At(k)
			wit := f.Separation(k)
			if !wit.Separated() {
				unseparated++
			}
			fmt.Fprintf(w, "%-3d %-3d %-35v %-9d %-14d %-11d %-9d %v\n",
				n, k, member, member.ConsensusNumber(), wit.Procs, wit.TaskK, wit.WeakerBest, wit.Separated())
		}
	}
	fmt.Fprintln(w)
	if unseparated > 0 {
		return fmt.Errorf("%d hierarchy witness(es) failed to separate", unseparated)
	}
	return nil
}

// expE17: the wealth, counted — distinct synchronization-power classes.
func expE17(w io.Writer, maxN int) error {
	fmt.Fprintln(w, "E17 The wealth quantified: pairwise-inequivalent set-consensus powers")
	fmt.Fprintln(w, "maxN  objects  power-classes  at-consensus-number-1")
	for _, cap := range []int{6, 10, maxN, 20} {
		if cap < 3 {
			continue
		}
		classes := core.Classes(cap)
		byNum := core.CountByConsensusNumber(cap)
		objects := cap * (cap - 1) / 2
		fmt.Fprintf(w, "%-5d %-8d %-14d %d\n", cap, objects, len(classes), byNum[1])
	}
	fmt.Fprintln(w, "  (every object is its own class: consensus number collapses 'wealth' that task power keeps apart)")
	fmt.Fprintln(w)
	return nil
}

// expHasse: the covering relations of the sub-consensus landscape.
func expHasse(w io.Writer, maxN int) error {
	cap := maxN
	if cap > 7 {
		cap = 7 // the diagram grows fast; keep the text rendering readable
	}
	fmt.Fprintf(w, "Hasse diagram of the implementability order, objects with n <= %d\n", cap)
	edges := core.HasseDiagram(cap)
	for _, e := range edges {
		fmt.Fprintf(w, "  %v  >  %v\n", e.A, e.B)
	}
	fmt.Fprintf(w, "  (%d covering edges; every object is its own class)\n\n", len(edges))
	return nil
}
