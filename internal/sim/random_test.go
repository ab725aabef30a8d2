package sim

// Randomized end-to-end synthesis verification: random acyclic behaviors go
// through BAD prediction, RTL binding and cycle-accurate simulation, and
// every netlist must match the golden model on random input vectors. This
// closes the loop over the whole stack (dfg -> sched -> alloc -> bad -> rtl
// -> sim) far beyond the hand-written benchmarks.

import (
	"math/rand"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/rtl"
)

func TestRandomBehaviorsSurviveSynthesis(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		g := dfg.RandomDAG(seed, 3, 12, 16)
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := bad.Config{
			Lib:     lib.ExtendedLibrary(),
			Style:   bad.Style{MultiCycle: true, NoPipelined: true},
			Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
			MaxArea: 8 * chip.MOSISPackages()[1].ProjectArea(),
			MaxII:   120,
		}
		res, err := bad.Predict(g, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Designs) == 0 {
			t.Fatalf("seed %d: no designs", seed)
		}
		rng := rand.New(rand.NewSource(seed * 977))
		for di, d := range res.Designs {
			cyc := rtl.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
			nl, err := rtl.Bind(g, d, cfg.Lib, cyc)
			if err != nil {
				t.Fatalf("seed %d design %d: %v", seed, di, err)
			}
			samples := make([]map[string]int64, 3)
			for v := range samples {
				samples[v] = map[string]int64{}
				for _, id := range g.Inputs() {
					samples[v][g.Nodes[id].Name] = int64(rng.Intn(2001) - 1000)
				}
			}
			if err := Verify(g, nl, samples, nil); err != nil {
				t.Fatalf("seed %d design %d: %v", seed, di, err)
			}
		}
	}
}

func TestRandomBehaviorsPartitionCleanly(t *testing.T) {
	for seed := int64(20); seed <= 32; seed++ {
		g := dfg.RandomDAG(seed, 4, 20, 16)
		for n := 1; n <= 3; n++ {
			parts := dfg.LevelPartitions(g, n)
			assign := map[int]int{}
			for pi, set := range parts {
				for _, id := range set {
					assign[id] = pi
				}
			}
			dep := g.PartitionDAG(assign, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i < j && dep[j][i] {
						t.Fatalf("seed %d n=%d: backward flow %d -> %d from level packing",
							seed, n, j, i)
					}
				}
			}
		}
	}
}
