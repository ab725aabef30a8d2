package bad

import "testing"

// maxPredictAllocs bounds the allocations of one Predict of the
// experiment-2 one-partition AR filter (Table 5's first row), with no
// cache or telemetry attached: the per-call dense state, the map keys of
// each unique design and list-scheduled allocation, and the kept designs.
// Measured with go1.24.0: 487 (930 designs generated, 207 unique, 2
// kept), so the budget is that plus 2%, rounded up.
const maxPredictAllocs = 497

// TestPredictAllocBudget is the hardware-independent gate on the
// predictor's cost: a design repeated along the sweep allocates nothing,
// and a unique one its dedup keys. The race detector's instrumentation
// allocates on its own, so the gate runs only without it.
func TestPredictAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := experimentPartitions()[0]
	cfg := exp2Config()
	res, err := Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Predict(g, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per Predict (%d designs generated, %d unique, %d kept)",
		allocs, res.Total, res.Unique, len(res.Designs))
	if allocs > maxPredictAllocs {
		t.Fatalf("Predict allocates %.0f objects, budget %d", allocs, maxPredictAllocs)
	}
}
