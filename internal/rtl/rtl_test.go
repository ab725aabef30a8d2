package rtl

import (
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/stats"
)

// exp2Designs predicts g's frontier under experiment-2 settings on a chip
// of areaScale times the 84-pin MOSIS package's project area.
func exp2Designs(t *testing.T, g *dfg.Graph, areaScale float64) ([]bad.Design, bad.Config) {
	t.Helper()
	cfg := bad.Config{
		Lib:     lib.Table1Library(),
		Style:   bad.Style{MultiCycle: true},
		Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		MaxArea: areaScale * chip.MOSISPackages()[1].ProjectArea(),
		Perf:    stats.Constraint{Bound: 20000, MinProb: 1},
		Delay:   stats.Constraint{Bound: 30000, MinProb: 0.8},
	}
	res, err := bad.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Designs) == 0 {
		t.Fatal("no designs to bind")
	}
	return res.Designs, cfg
}

func bindFirst(t *testing.T, g *dfg.Graph) (*Netlist, bad.Design, bad.Config) {
	t.Helper()
	designs, cfg := exp2Designs(t, g, 1)
	d := designs[0]
	cyc := OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
	n, err := Bind(g, d, cfg.Lib, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Validate(g); err != nil {
		t.Fatal(err)
	}
	return n, d, cfg
}

func TestBindARFilter(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	n, d, _ := bindFirst(t, g)
	// FU instance counts must match the design's allocation.
	counts := map[dfg.Op]int{}
	for _, fu := range n.FUs {
		counts[fu.Module.Op]++
	}
	for op, want := range d.FUs {
		if counts[op] != want {
			t.Fatalf("%s instances = %d, design allocated %d", op, counts[op], want)
		}
	}
	// Every compute op bound exactly once.
	bound := map[int]bool{}
	for _, fu := range n.FUs {
		for _, id := range fu.Ops {
			if bound[id] {
				t.Fatalf("node %d bound twice", id)
			}
			bound[id] = true
		}
	}
	if len(bound) != 28 {
		t.Fatalf("bound %d ops, want 28", len(bound))
	}
}

func TestBindNoFUConflicts(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	n, d, cfg := bindFirst(t, g)
	cyc := OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
	// Rebuild the schedule and replay per-FU occupancy.
	starts := scheduleStarts(t, g, d, cyc)
	for _, fu := range n.FUs {
		busy := map[int]int{}
		for _, id := range fu.Ops {
			dur := cyc(g.Nodes[id])
			for k := 0; k < dur; k++ {
				slot := (starts[id] + k) % n.II
				busy[slot]++
				if busy[slot] > 1 {
					t.Fatalf("FU %s double-booked in slot %d", fu.Name, slot)
				}
			}
		}
	}
}

func scheduleStarts(t *testing.T, g *dfg.Graph, d bad.Design, cyc func(dfg.Node) int) []int {
	t.Helper()
	nl, err := Bind(g, d, lib.Table1Library(), cyc)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, len(g.Nodes))
	for _, step := range nl.Control {
		for _, id := range step.Fire {
			starts[id] = step.Cycle
		}
	}
	return starts
}

func TestBindRegisterLifetimesDisjoint(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	n, d, cfg := bindFirst(t, g)
	cyc := OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
	starts := scheduleStarts(t, g, d, cyc)
	birth := func(id int) int {
		nd := g.Nodes[id]
		if !nd.Op.NeedsFU() {
			return 0
		}
		return starts[id] + cyc(nd)
	}
	death := func(id int) int {
		dth := birth(id)
		for _, su := range g.Succs(id) {
			if g.Nodes[su].Op == dfg.OpOutput {
				continue
			}
			if starts[su] > dth {
				dth = starts[su]
			}
		}
		return dth
	}
	for _, r := range n.Regs {
		for i := 0; i < len(r.Values); i++ {
			for j := i + 1; j < len(r.Values); j++ {
				a, b := r.Values[i], r.Values[j]
				if birth(a) <= death(b) && birth(b) <= death(a) {
					t.Fatalf("register %s hosts overlapping values %d [%d,%d] and %d [%d,%d]",
						r.Name, a, birth(a), death(a), b, birth(b), death(b))
				}
			}
		}
	}
}

func TestBindMuxesReflectSharing(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	designs, cfg := exp2Designs(t, g, 1)
	// The most serial design shares FUs heavily -> needs muxes; a fully
	// parallel binding of a tiny graph needs none.
	serial := designs[len(designs)-1]
	cyc := OpCyclesFor(serial, true, cfg.Clocks.DatapathNS())
	n, err := Bind(g, serial, cfg.Lib, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if n.Mux1Bit() == 0 {
		t.Fatal("heavily shared design bound without muxes")
	}

	small := dfg.New("pair")
	in := small.AddNode("in", dfg.OpInput, 8)
	a := small.AddNode("a", dfg.OpAdd, 8)
	small.MustConnect(in, a)
	o := small.AddNode("o", dfg.OpOutput, 8)
	small.MustConnect(a, o)
	d2 := bad.Design{
		Style:     bad.NonPipelined,
		ModuleSet: lib.ModuleSet{dfg.OpAdd: lib.Table1Library().ModulesFor(dfg.OpAdd)[0]},
		FUs:       map[dfg.Op]int{dfg.OpAdd: 1},
		II:        1, Latency: 1, Stages: 1,
	}
	n2, err := Bind(small, d2, lib.Table1Library(), func(dfg.Node) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	// The only steering the tiny netlist may need is the input mux of a
	// register shared between the input value and the sum (one 8-bit tree).
	if n2.Mux1Bit() > 8 {
		t.Fatalf("tiny netlist has %d mux bits, expected at most one shared-register tree", n2.Mux1Bit())
	}
}

func TestBindControlTableCoversAllOps(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	n, _, _ := bindFirst(t, g)
	fired := map[int]bool{}
	loaded := map[string]bool{}
	for _, step := range n.Control {
		for _, id := range step.Fire {
			fired[id] = true
		}
		for r := range step.Load {
			loaded[r] = true
		}
	}
	if len(fired) != 28 {
		t.Fatalf("control table fires %d ops, want 28", len(fired))
	}
	if len(loaded) == 0 {
		t.Fatal("control table loads nothing")
	}
}

func TestBindPipelinedDesign(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	// At the 1x area of the other tests the frontier has no pipelined design.
	designs, cfg := exp2Designs(t, g, 2)
	var pip *bad.Design
	for i := range designs {
		if designs[i].Style == bad.Pipelined {
			pip = &designs[i]
			break
		}
	}
	if pip == nil {
		t.Fatal("no pipelined design in frontier")
	}
	cyc := OpCyclesFor(*pip, true, cfg.Clocks.DatapathNS())
	n, err := Bind(g, *pip, cfg.Lib, cyc)
	if err != nil {
		t.Fatal(err)
	}
	if n.II != pip.II {
		t.Fatalf("netlist II = %d, design II = %d", n.II, pip.II)
	}
	if err := n.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestBindErrors(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	d := bad.Design{ // no module for mul
		Style:     bad.NonPipelined,
		ModuleSet: lib.ModuleSet{dfg.OpAdd: lib.Table1Library().ModulesFor(dfg.OpAdd)[0]},
		FUs:       map[dfg.Op]int{dfg.OpAdd: 2, dfg.OpMul: 2},
		II:        20, Latency: 20,
	}
	if _, err := Bind(g, d, lib.Table1Library(), func(dfg.Node) int { return 1 }); err == nil {
		t.Fatal("missing module accepted")
	}
}

// TestPredictionAccuracy reproduces the paper's claim that BAD's
// predictions track actual synthesis: the bound netlist's register bits,
// mux count and cell area must be within a factor-2 band of the prediction
// for every frontier design of the AR filter. EXPERIMENTS.md reports the
// measured ratios.
func TestPredictionAccuracy(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	designs, cfg := exp2Designs(t, g, 1)
	for _, d := range designs {
		cyc := OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
		n, err := Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			t.Fatalf("bind %s ii=%d: %v", d.Style, d.II, err)
		}
		checkBand(t, "register bits", float64(n.RegisterBits()), float64(d.RegBits))
		checkBand(t, "mux cells", float64(n.Mux1Bit()), float64(d.Mux1Bit))
		// Cell area: compare against the prediction's FU+reg+mux portion
		// reconstructed from the design record.
		predCell := 0.0
		for op, cnt := range d.FUs {
			predCell += float64(cnt) * d.ModuleSet[op].Area
		}
		predCell += float64(d.RegBits)*cfg.Lib.Register.Area + float64(d.Mux1Bit)*cfg.Lib.Mux.Area
		checkBand(t, "cell area", n.CellArea(cfg.Lib), predCell)
	}
}

func checkBand(t *testing.T, what string, actual, predicted float64) {
	t.Helper()
	if predicted <= 0 {
		if actual > 0 {
			t.Fatalf("%s: predicted 0, bound %v", what, actual)
		}
		return
	}
	ratio := actual / predicted
	if ratio < 0.4 || ratio > 2.0 {
		t.Fatalf("%s: bound %v vs predicted %v (ratio %.2f outside [0.4, 2.0])",
			what, actual, predicted, ratio)
	}
}
