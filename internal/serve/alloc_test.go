package serve

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"chop/internal/spec"
)

// maxEvalAllocs is the budget of TestServeEvalAllocBudget: the measured
// 1,023 allocations plus 2%, rounded up.
const maxEvalAllocs = 1044

// TestServeEvalAllocBudget is the hardware-independent gate on one serve
// job: an eval of spec.Example() through a one-worker registry whose
// prediction cache is already primed, from Submit until the worker has
// finished the run, may allocate at most maxEvalAllocs objects. The race
// detector allocates on its own, so the gate runs only without it.
func TestServeEvalAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Options{MaxConcurrent: 1})
	defer r.Shutdown(context.Background())
	runs := make([]*Run, 0, 32)
	eval := func() {
		run, err := r.Submit("eval", raw)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		// Wait without allocating: the run has left both the queue and the
		// worker once the worker has done all it does for it.
		for {
			r.mu.Lock()
			idle := len(r.pending) == 0 && len(r.running) == 0
			r.mu.Unlock()
			if idle {
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	eval() // primes the prediction cache
	allocs := testing.AllocsPerRun(20, eval)
	for _, run := range runs {
		if st := run.Status(false); st.State != StateDone {
			t.Fatalf("run %s: state %s (%s), want done", st.ID, st.State, st.Error)
		}
	}
	t.Logf("one eval job: %.0f allocations (budget %d)", allocs, maxEvalAllocs)
	if allocs > maxEvalAllocs {
		t.Fatalf("one eval job allocates %.0f objects, budget %d", allocs, maxEvalAllocs)
	}
}
