// fullflow drives the complete tool chain on a behavioral program written
// in the textual specification language: compile (with loop unrolling, paper
// section 2.3) -> partition -> CHOP feasibility search -> RTL synthesis of
// the chosen partition implementations (paper section 5's "immediate task")
// -> cycle-accurate verification of each netlist against the behavioral
// golden model.
package main

import (
	"fmt"
	"log"

	chop "chop"
)

// A 4-tap correlator with a post-scaling loop, written in the hlspec
// language. The inner loop has a determinate trip count and is unrolled by
// the compiler.
const program = `
	input x0, x1, x2, x3
	acc = x0 * 11 + x1 * 12
	acc = acc + x2 * 13 + x3 * 14
	# refine the estimate twice: acc = acc*2 - x0
	loop 2 {
		acc = acc * 2 - x0
	}
	output acc
`

func main() {
	g, err := chop.CompileHLS("correlator", program, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %q: %d nodes, ops %v\n", g.Name, len(g.Nodes), g.OpCounts())

	// Partition onto two 84-pin chips and search.
	p := &chop.Partitioning{
		Graph:    g,
		Parts:    chop.LevelPartitions(g, 2),
		PartChip: []int{0, 1},
		Chips:    chop.NewChipSet(2, chop.MOSISPackages()[1], 4),
	}
	cfg := chop.Config{
		Lib:    chop.ExtendedLibrary(), // the program uses subtraction
		Style:  chop.Style{MultiCycle: true},
		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		Constraints: chop.Constraints{
			Perf:  chop.Constraint{Bound: 20000, MinProb: 1},
			Delay: chop.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}
	res, _, err := chop.Run(p, cfg, chop.Iterative)
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Best) == 0 {
		log.Fatal("no feasible implementation")
	}
	best := res.Best[0]
	fmt.Printf("feasible: interval=%d cycles, delay=%d cycles, clock=%.0f ns\n",
		best.IIMain, best.DelayMain, best.Clock.ML)

	// Synthesize each partition's chosen design down to RTL and verify it
	// against the behavioral golden model on concrete vectors.
	subgraphs := p.Subgraphs()
	for pi, d := range best.Choice {
		sub := subgraphs[pi]
		cyc := chop.OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
		nl, err := chop.Bind(sub, d, cfg.Lib, cyc)
		if err != nil {
			log.Fatalf("partition %d: %v", pi+1, err)
		}
		fmt.Printf("partition %d netlist: %d FUs, %d register bits, %d mux cells, %d control steps\n",
			pi+1, len(nl.FUs), nl.RegisterBits(), nl.Mux1Bit(), len(nl.Control))

		// The partition subgraph has no primary I/O of its own (values
		// arrive from other partitions); functional verification runs on
		// the whole behavior below.
		_ = nl
	}

	// Verify the whole behavior as a single netlist (the 1-partition
	// implementation): compile-level semantics must survive synthesis.
	whole := &chop.Partitioning{
		Graph:    g,
		Parts:    chop.LevelPartitions(g, 1),
		PartChip: []int{0},
		Chips:    chop.NewChipSet(1, chop.MOSISPackages()[1], 4),
	}
	preds, err := chop.PredictPartitions(whole, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(preds[0].Designs) == 0 {
		log.Fatal("no single-chip design to verify")
	}
	for _, d := range preds[0].Designs {
		cyc := chop.OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
		nl, err := chop.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			log.Fatal(err)
		}
		if err := chop.VerifyNetlist(g, nl, []map[string]int64{
			{"x0": 1, "x1": 2, "x2": 3, "x3": 4},
			{"x0": -7, "x1": 100, "x2": 0, "x3": 55},
		}, nil); err != nil {
			log.Fatalf("verification FAILED: %v", err)
		}
	}
	fmt.Printf("verified %d synthesized implementation(s) against the golden model: PASS\n", len(preds[0].Designs))

	// And show the source-level semantics directly.
	out, err := chop.Evaluate(g, map[string]int64{"x0": 1, "x1": 2, "x2": 3, "x3": 4}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden model outputs: %v\n", out)
}
