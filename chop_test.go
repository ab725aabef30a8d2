package chop_test

import (
	"strings"
	"testing"

	chop "chop"
)

// TestQuickstartFlow exercises the documented public-API session end to
// end: build a behavior, partition it, configure CHOP, run both heuristics.
func TestQuickstartFlow(t *testing.T) {
	g := chop.ARLatticeFilter(16)
	p := &chop.Partitioning{
		Graph:    g,
		Parts:    chop.LevelPartitions(g, 2),
		PartChip: []int{0, 1},
		Chips:    chop.NewChipSet(2, chop.MOSISPackages()[1], 4),
	}
	cfg := chop.Config{
		Lib:    chop.Table1Library(),
		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: chop.Constraints{
			Perf:  chop.Constraint{Bound: 30000, MinProb: 1},
			Delay: chop.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}
	for _, h := range []chop.Heuristic{chop.Enumeration, chop.Iterative} {
		res, preds, err := chop.Run(p, cfg, h)
		if err != nil {
			t.Fatal(err)
		}
		if len(preds) != 2 {
			t.Fatalf("%v: predictions for %d partitions", h, len(preds))
		}
		if len(res.Best) == 0 {
			t.Fatalf("%v: no feasible design", h)
		}
		best := res.Best[0]
		if best.IIMain <= 0 || best.DelayMain < best.IIMain || !best.Feasible {
			t.Fatalf("%v: malformed best design %+v", h, best)
		}
	}
}

// TestCustomGraphThroughFacade builds a user graph through the facade and
// predicts it with BAD directly.
func TestCustomGraphThroughFacade(t *testing.T) {
	g := chop.NewGraph("user")
	in := g.AddNode("in", chop.OpInput, 16)
	m := g.AddNode("m", chop.OpMul, 16)
	a := g.AddNode("a", chop.OpAdd, 16)
	out := g.AddNode("out", chop.OpOutput, 16)
	g.MustConnect(in, m)
	g.MustConnect(m, a)
	g.MustConnect(a, out)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := chop.Predict(g, chop.PredictConfig{
		Lib:    chop.Table1Library(),
		Style:  chop.Style{MultiCycle: true},
		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		MaxII:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Designs) == 0 {
		t.Fatal("no designs for trivial graph")
	}
	for _, d := range res.Designs {
		if d.Style != chop.Pipelined && d.Style != chop.NonPipelined {
			t.Fatalf("unknown style %v", d.Style)
		}
	}
}

// TestKLFacade exercises the baseline exports.
func TestKLFacade(t *testing.T) {
	g := chop.ARLatticeFilter(16)
	parts := chop.KLKWay(g, 2, 10)
	if len(parts) != 2 {
		t.Fatalf("KWay parts = %d", len(parts))
	}
	a := chop.KLBisect(g, 10)
	if chop.KLCutBits(g, a) <= 0 {
		t.Fatal("connected graph must have a positive cut")
	}
	if !chop.KLValidateAcyclic(g, chop.LevelPartitions(g, 3)) {
		t.Fatal("level partitions must validate acyclic")
	}
}

// TestSynthesisFacade drives the exported synthesis/verification surface:
// bind a design, emit Verilog, co-simulate the partitioned system.
func TestSynthesisFacade(t *testing.T) {
	g := chop.ARLatticeFilter(16)
	p := &chop.Partitioning{
		Graph:    g,
		Parts:    chop.LevelPartitions(g, 2),
		PartChip: []int{0, 1},
		Chips:    chop.NewChipSet(2, chop.MOSISPackages()[1], 4),
	}
	cfg := chop.Config{
		Lib:    chop.Table1Library(),
		Style:  chop.Style{MultiCycle: true, NoPipelined: true},
		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		Constraints: chop.Constraints{
			Perf:  chop.Constraint{Bound: 20000, MinProb: 1},
			Delay: chop.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}
	inputs := []map[string]int64{{"x1": 5, "x2": -3, "x3": 8, "x4": 2}}
	if err := chop.CosimVerifyBest(p, cfg, chop.Iterative, inputs, nil); err != nil {
		t.Fatal(err)
	}

	preds, err := chop.PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := p.Subgraphs()[0]
	d := preds[0].Designs[0]
	cyc := chop.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
	nl, err := chop.Bind(sub, d, cfg.Lib, cyc)
	if err != nil {
		t.Fatal(err)
	}
	v := nl.Verilog(sub)
	if len(v) == 0 || !strings.Contains(v, "endmodule") {
		t.Fatalf("Verilog emission broken: %q", v[:min(len(v), 120)])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
