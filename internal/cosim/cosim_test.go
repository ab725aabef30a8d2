package cosim

import (
	"math/rand"
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/stats"
)

func exp2Config() core.Config {
	return core.Config{
		Lib:    lib.Table1Library(),
		Style:  bad.Style{MultiCycle: true, NoPipelined: true},
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		Constraints: core.Constraints{
			Perf:  stats.Constraint{Bound: 20000, MinProb: 1},
			Delay: stats.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}
}

func arPartitioning(t *testing.T, n int) *core.Partitioning {
	t.Helper()
	g := dfg.ARLatticeFilter(16)
	chips := make([]int, n)
	for i := range chips {
		chips[i] = i
	}
	p := &core.Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, n),
		PartChip: chips,
		Chips:    chip.NewUniformSet(n, chip.MOSISPackages()[1], 4),
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// arSamples returns n AR-filter input vectors, sample k drawn from seed
// first+k.
func arSamples(first int64, n int) []map[string]int64 {
	out := make([]map[string]int64, n)
	for k := range out {
		rng := rand.New(rand.NewSource(first + int64(k)))
		out[k] = map[string]int64{
			"x1": int64(rng.Intn(200) - 100), "x2": int64(rng.Intn(200) - 100),
			"x3": int64(rng.Intn(200) - 100), "x4": int64(rng.Intn(200) - 100),
		}
	}
	return out
}

// TestMultiChipSystemMatchesGolden is the end-to-end reproduction check:
// the AR filter partitioned onto 1, 2 and 3 chips, each partition's chosen
// design synthesized to RTL, values routed across chip boundaries, outputs
// compared with the unpartitioned behavior.
func TestMultiChipSystemMatchesGolden(t *testing.T) {
	for n := 1; n <= 3; n++ {
		p := arPartitioning(t, n)
		if err := VerifyBest(p, exp2Config(), core.Iterative, arSamples(1, 4), nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestSynthesize: the synth flow returns a bound netlist per partition of
// the fastest all-non-pipelined design, and a partition that cannot be
// bound fails as a verification failure naming the partition.
func TestSynthesize(t *testing.T) {
	p := arPartitioning(t, 2)
	cfg := exp2Config()
	res, _, err := core.Run(p, cfg, core.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Synthesize(p, cfg, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if len(syn.Netlists) != 2 || len(syn.Subgraphs) != 2 {
		t.Fatalf("%d netlists, %d subgraphs for 2 partitions", len(syn.Netlists), len(syn.Subgraphs))
	}
	for pi, nl := range syn.Netlists {
		if err := nl.Validate(syn.Subgraphs[pi]); err != nil {
			t.Errorf("partition %d: %v", pi+1, err)
		}
	}

	broken := *syn.Design
	broken.Choice = append([]bad.Design(nil), broken.Choice...)
	broken.Choice[1].ModuleSet = lib.ModuleSet{}
	_, err = Synthesize(p, cfg, []core.GlobalDesign{broken})
	if err == nil || !strings.HasPrefix(err.Error(), "synth: verification failed: cosim: partition 2: ") {
		t.Fatalf("unbindable partition: %v", err)
	}
}

func TestVerifyRejectsWrongChoiceCount(t *testing.T) {
	p := arPartitioning(t, 2)
	if err := Verify(p, exp2Config(), nil, arSamples(1, 1), nil); err == nil {
		t.Fatal("empty choice accepted")
	}
}

func TestMultiChipRandomBehaviors(t *testing.T) {
	for seed := int64(60); seed <= 68; seed++ {
		g := dfg.RandomDAG(seed, 4, 18, 16)
		p := &core.Partitioning{
			Graph:    g,
			Parts:    dfg.LevelPartitions(g, 2),
			PartChip: []int{0, 1},
			Chips:    chip.NewUniformSet(2, chip.MOSISPackages()[1], 4),
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := exp2Config()
		cfg.Lib = lib.ExtendedLibrary() // random DAGs contain subtractions
		rng := rand.New(rand.NewSource(seed))
		inputs := map[string]int64{}
		for _, id := range g.Inputs() {
			inputs[g.Nodes[id].Name] = int64(rng.Intn(201) - 100)
		}
		err := VerifyBest(p, cfg, core.Iterative, []map[string]int64{inputs}, nil)
		if err != nil && strings.Contains(err.Error(), "no feasible") {
			continue // constraints can be unreachable for odd graphs
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestStreamedMultiChipPipelinedSystem streams samples through the AR
// filter on 1, 2 and 3 chips, every partition that has a pipelined design
// running one, and checks every sample against the golden model.
func TestStreamedMultiChipPipelinedSystem(t *testing.T) {
	cfg := exp2Config()
	cfg.Style.NoPipelined = false
	cfg.KeepAll = true // level-1 pruning drops every pipelined design at this area
	for n := 1; n <= 3; n++ {
		p := arPartitioning(t, n)
		preds, err := core.PredictPartitions(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		choice := make([]bad.Design, n)
		pipelined := 0
		for pi, r := range preds {
			choice[pi] = r.Designs[0]
			for _, d := range r.Designs {
				if d.Style == bad.Pipelined {
					choice[pi] = d
					pipelined++
					break
				}
			}
		}
		if pipelined == 0 {
			t.Fatalf("n=%d: no partition has a pipelined design", n)
		}
		if err := Verify(p, cfg, choice, arSamples(11, 6), nil); err != nil {
			t.Fatalf("n=%d (%d pipelined partitions): %v", n, pipelined, err)
		}
	}
}

func TestVerifyStreamEmptyAndMismatch(t *testing.T) {
	p := arPartitioning(t, 2)
	cfg := exp2Config()
	preds, err := core.PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := []bad.Design{preds[0].Designs[0], preds[1].Designs[0]}
	if err := Verify(p, cfg, full, nil, nil); err != nil {
		t.Fatalf("empty stream must be a no-op: %v", err)
	}
	short := full[:1] // wrong count
	if err := Verify(p, cfg, short, arSamples(1, 1), nil); err == nil {
		t.Fatal("wrong choice count accepted")
	}
}

func TestVerifyStreamThreeChips(t *testing.T) {
	p := arPartitioning(t, 3)
	cfg := exp2Config()
	cfg.Style.NoPipelined = false
	res, _, err := core.Run(p, cfg, core.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Skip("no feasible 3-chip design")
	}
	if err := Verify(p, cfg, res.Best[0].Choice, arSamples(40, 5), nil); err != nil {
		t.Fatal(err)
	}
}
