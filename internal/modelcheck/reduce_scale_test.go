package modelcheck

import (
	"testing"

	"detobj/internal/catalogue"
)

// TestReducedE4Procs5 pins the reduced engine at the first scale the
// exhaustive explorers cannot reach under the default test timeout:
// E4 with k=3 and five processes (one solo writer plus four symmetric
// followers).  The execution count 910800 was verified once against
// the exhaustive engine on the same factory (~42s wall clock); the reduced
// engine reconstructs it from under two thousand concrete runs in
// tens of milliseconds.  cmd/modelcheck's -stats E4r table prints
// this configuration and cites this test as the oracle record.
func TestReducedE4Procs5(t *testing.T) {
	const wantExecutions = 910800

	row := catalogue.E4{K: 3, Procs: 5}
	f, sym := row.Config, rowSymmetry(row.Sym())

	visits := 0
	rep, err := ExploreReduced(f, Reduced{Sym: sym}, 0, func(e Execution, orbit int) error {
		visits++
		if orbit < 1 || orbit > len(sym.Perms) {
			t.Fatalf("orbit %d outside [1, %d]", orbit, len(sym.Perms))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ExploreReduced: %v", err)
	}
	if rep.Executions != wantExecutions {
		t.Errorf("Executions = %d, want %d (oracle: exhaustive exploration of catalogue.E4{K: 3, Procs: 5})",
			rep.Executions, wantExecutions)
	}
	if rep.Representatives != visits {
		t.Errorf("Representatives = %d, but visit ran %d times", rep.Representatives, visits)
	}
	if rep.Group != 24 {
		t.Errorf("Group = %d, want 4! = 24", rep.Group)
	}
	if !rep.Deduped {
		t.Error("dedup unexpectedly unavailable: relaxed WRN objects must implement StateSigner")
	}
	// The whole point: representatives are a small fraction of the space.
	if rep.Representatives >= wantExecutions/100 {
		t.Errorf("Representatives = %d — reduction bought less than 100x", rep.Representatives)
	}
}
