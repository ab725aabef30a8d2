package core

import (
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/mem"
	"chop/internal/stats"
)

// firstFeasible runs BAD + enumeration and returns the first feasible
// global design, failing the test if none exists.
func firstFeasible(t *testing.T, p *Partitioning, cfg Config) GlobalDesign {
	t.Helper()
	res, _, err := Run(p, cfg, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) == 0 {
		t.Fatal("no feasible global design")
	}
	return res.Best[0]
}

func TestIntegrateSingleChipFeasible(t *testing.T) {
	g := firstFeasible(t, arPartitioning(t, 1, 1), exp1Config())
	if g.IIMain <= 0 || g.DelayMain < g.IIMain {
		t.Fatalf("II=%d delay=%d", g.IIMain, g.DelayMain)
	}
	// The system delay includes the input and output transfers, so it
	// exceeds the bare compute latency (paper Table 4: delay 67 vs II 60).
	lat := g.Choice[0].LatencyMainCycles(exp1Config().Clocks)
	if g.DelayMain <= lat {
		t.Fatalf("delay %d must exceed compute latency %d (transfers)", g.DelayMain, lat)
	}
	if len(g.Modules) != 2 { // ext->P1 and P1->ext
		t.Fatalf("modules = %d", len(g.Modules))
	}
	if g.Clock.ML <= 300 {
		t.Fatalf("adjusted clock %v must exceed the 300 ns main clock", g.Clock.ML)
	}
}

func TestIntegrateClockNearPaperBand(t *testing.T) {
	// Paper Tables 4/6 report 308-400 ns adjusted clocks.
	for n := 1; n <= 3; n++ {
		g := firstFeasible(t, arPartitioning(t, n, 1), exp1Config())
		if g.Clock.ML < 305 || g.Clock.ML > 410 {
			t.Fatalf("n=%d clock %v out of band", n, g.Clock.ML)
		}
	}
}

func TestIntegrateChipAreasWithinPackage(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	g := firstFeasible(t, p, exp1Config())
	for ci, a := range g.ChipArea {
		usable := p.Chips.Chips[ci].Pkg.UsableArea(g.ChipPins[ci])
		if a.Hi > usable {
			t.Fatalf("chip %d area %v exceeds usable %v in a feasible design", ci, a.Hi, usable)
		}
		if g.ChipPins[ci] > p.Chips.Chips[ci].Pkg.Pins {
			t.Fatalf("chip %d pins %d over package", ci, g.ChipPins[ci])
		}
	}
}

func TestIntegratePipelinedMismatchRejected(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pip *bad.Design
	for i := range preds[0].Designs {
		if preds[0].Designs[i].Style == bad.Pipelined {
			pip = &preds[0].Designs[i]
			break
		}
	}
	if pip == nil {
		t.Skip("no pipelined design in frontier")
	}
	it := NewDebugIntegrator(p, cfg)
	// Evaluate the pipelined design at double its interval: mismatch.
	other := preds[1].Designs[0]
	l := pip.IIMainCycles(cfg.Clocks) * 2
	if other.IIMainCycles(cfg.Clocks) > l {
		t.Skip("partner design too slow for this check")
	}
	g := it.Eval([]bad.Design{*pip, other}, l)
	if g.Feasible || !strings.Contains(g.Reason, "mismatch") {
		t.Fatalf("pipelined rate mismatch accepted: %+v", g.Reason)
	}
}

func TestIntegrateBufferFormulaApplied(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	g := firstFeasible(t, p, exp1Config())
	for _, m := range g.Modules {
		if m.BufferBits < m.Task.Bits {
			t.Fatalf("module %s buffer %d below payload %d",
				m.Task.Name, m.BufferBits, m.Task.Bits)
		}
	}
}

func TestIntegrateDetectsPinStarvation(t *testing.T) {
	// A chip with almost all pins reserved cannot move the cut data.
	g := dfg.ARLatticeFilter(16)
	p := &Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, 2),
		PartChip: []int{0, 1},
		Chips:    chip.NewUniformSet(2, chip.MOSISPackages()[0], 60),
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	res, _, err := Run(p, exp1Config(), Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) != 0 {
		t.Fatal("pin-starved chip set produced a feasible design")
	}
}

func TestIntegrateSmallerPackageNeverBeatsLarger(t *testing.T) {
	// Paper Table 4: the 64-pin package yields equal or slightly larger
	// system delay than the 84-pin package.
	for _, cfg := range []Config{exp1Config(), exp2Config()} {
		b84 := firstFeasible(t, arPartitioning(t, 2, 1), cfg)
		b64 := firstFeasible(t, arPartitioning(t, 2, 0), cfg)
		if b64.IIMain < b84.IIMain {
			t.Fatalf("64-pin II %d beats 84-pin %d", b64.IIMain, b84.IIMain)
		}
		if b64.IIMain == b84.IIMain && b64.DelayMain < b84.DelayMain {
			t.Fatalf("64-pin delay %d beats 84-pin %d", b64.DelayMain, b84.DelayMain)
		}
	}
}

func TestIntegrateMemoryBandwidthChecked(t *testing.T) {
	res, _, err := Run(memboundPartitioning(t), exp2Config(), Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	// 40 us per access and 4 reads per iteration cannot fit any interval
	// under the 20 us performance bound.
	if len(res.Best) != 0 {
		t.Fatalf("memory-bound design reported feasible: %+v", res.Best[0].Reason)
	}
}

// memboundPartitioning is one partition hammering a slow single-port
// memory, which must be rejected at short intervals.
func memboundPartitioning(t *testing.T) *Partitioning {
	t.Helper()
	g := dfg.New("membound")
	in := g.AddNode("in", dfg.OpInput, 16)
	prev := in
	for i := 0; i < 4; i++ {
		rd := g.AddMemNode("rd"+string(rune('0'+i)), dfg.OpMemRd, 16, "MA")
		a := g.AddNode("a"+string(rune('0'+i)), dfg.OpAdd, 16)
		g.MustConnect(prev, a)
		g.MustConnect(rd, a)
		prev = a
	}
	o := g.AddNode("o", dfg.OpOutput, 16)
	g.MustConnect(prev, o)

	slow := mem.Block{Name: "MA", Words: 64, Width: 16, Ports: 1,
		AccessTime: 40000, Area: 3000, ControlPins: 2}
	var compute []int
	for _, n := range g.Nodes {
		if n.Op.NeedsFU() || n.Op.IsMemory() {
			compute = append(compute, n.ID)
		}
	}
	p := &Partitioning{
		Graph:    g,
		Parts:    [][]int{compute},
		PartChip: []int{0},
		Chips:    chip.NewUniformSet(1, chip.MOSISPackages()[1], 4),
		Mem:      mem.System{Blocks: []mem.Block{slow}, Assign: mem.Assignment{"MA": 0}},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestIntegratePowerConstraintExtension(t *testing.T) {
	p := arPartitioning(t, 1, 1)
	cfg := exp1Config()
	base := firstFeasible(t, p, cfg)
	if base.Power.ML <= 0 {
		t.Fatalf("power estimate missing: %v", base.Power)
	}
	// A bound below the estimate must make everything infeasible.
	cfg.Constraints.Power = stats.Constraint{Bound: base.Power.Lo / 2, MinProb: 0.9}
	res, _, err := Run(p, cfg, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Best) != 0 {
		t.Fatal("power-violating design reported feasible")
	}
}

func TestIntegrateOffChipMemoryReservesPins(t *testing.T) {
	g := dfg.New("memio")
	in := g.AddNode("in", dfg.OpInput, 16)
	rd := g.AddMemNode("rd", dfg.OpMemRd, 16, "MA")
	a := g.AddNode("a", dfg.OpAdd, 16)
	g.MustConnect(in, a)
	g.MustConnect(rd, a)
	o := g.AddNode("o", dfg.OpOutput, 16)
	g.MustConnect(a, o)
	blk := mem.Block{Name: "MA", Words: 1024, Width: 16, Ports: 1,
		AccessTime: 100, OffChip: true, ControlPins: 2}
	mk := func(assign mem.Assignment) GlobalDesign {
		p := &Partitioning{
			Graph:    g,
			Parts:    [][]int{{a, rd}},
			PartChip: []int{0},
			Chips:    chip.NewUniformSet(1, chip.MOSISPackages()[1], 4),
			Mem:      mem.System{Blocks: []mem.Block{blk}, Assign: assign},
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return firstFeasible(t, p, exp2Config())
	}
	offChip := mk(nil)                    // memory outside the chip set
	onChip := mk(mem.Assignment{"MA": 0}) // memory on the chip
	if offChip.ChipPins[0] <= onChip.ChipPins[0] {
		t.Fatalf("off-chip memory must consume pins: %d vs %d",
			offChip.ChipPins[0], onChip.ChipPins[0])
	}
}

func TestGlobalDesignTotalArea(t *testing.T) {
	g := GlobalDesign{ChipArea: []stats.Triplet{stats.Exact(100), stats.Exact(200)}}
	if g.TotalArea() != 300 {
		t.Fatalf("TotalArea = %v", g.TotalArea())
	}
}

func TestSelectionOK(t *testing.T) {
	clocks := exp1Config().Clocks // datapath x10
	pip := bad.Design{Style: bad.Pipelined, II: 3}
	if !selectionOK(pip, 30, clocks) {
		t.Fatal("matching pipelined rejected")
	}
	if selectionOK(pip, 40, clocks) || selectionOK(pip, 20, clocks) {
		t.Fatal("mismatched pipelined accepted")
	}
	np := bad.Design{Style: bad.NonPipelined, II: 3}
	if !selectionOK(np, 30, clocks) || !selectionOK(np, 50, clocks) {
		t.Fatal("faster non-pipelined must be allowed at slower system rates")
	}
	if selectionOK(np, 20, clocks) {
		t.Fatal("too-slow non-pipelined accepted")
	}
}

func TestMemoryPortContentionSerializesPartitions(t *testing.T) {
	// Two independent partitions hammer the same memory block. With one
	// port they must serialize in the task schedule; a dual-port block
	// lets them overlap, shortening the system delay.
	build := func(ports int) GlobalDesign {
		g := dfg.New("contend")
		in1 := g.AddNode("in1", dfg.OpInput, 16)
		in2 := g.AddNode("in2", dfg.OpInput, 16)
		mkSide := func(tag string, in int) int {
			rd := g.AddMemNode("rd"+tag, dfg.OpMemRd, 16, "MA")
			prev := in
			for i := 0; i < 6; i++ {
				a := g.AddNode(tag+"a"+string(rune('0'+i)), dfg.OpAdd, 16)
				g.MustConnect(prev, a)
				if i == 0 {
					g.MustConnect(rd, a)
				}
				prev = a
			}
			o := g.AddNode("o"+tag, dfg.OpOutput, 16)
			g.MustConnect(prev, o)
			return rd
		}
		rd1 := mkSide("L", in1)
		rd2 := mkSide("R", in2)
		var p0, p1 []int
		for _, n := range g.Nodes {
			if !n.Op.NeedsFU() && !n.Op.IsMemory() {
				continue
			}
			if n.ID <= rd1 || (n.ID > rd1 && n.ID < rd2 && n.Op.NeedsFU()) {
				p0 = append(p0, n.ID)
			} else {
				p1 = append(p1, n.ID)
			}
		}
		p := &Partitioning{
			Graph:    g,
			Parts:    [][]int{p0, p1},
			PartChip: []int{0, 1},
			Chips:    chip.NewUniformSet(2, chip.MOSISPackages()[1], 4),
			Mem: mem.System{
				Blocks: []mem.Block{{Name: "MA", Words: 64, Width: 16, Ports: ports,
					AccessTime: 100, Area: 3000, ControlPins: 2}},
				Assign: mem.Assignment{"MA": 0},
			},
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return firstFeasible(t, p, exp2Config())
	}
	single := build(1)
	dual := build(2)
	if single.DelayMain <= dual.DelayMain {
		t.Fatalf("single-port delay %d must exceed dual-port %d (port contention)",
			single.DelayMain, dual.DelayMain)
	}
}
