package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/rtl"
	"chop/internal/stats"
	"chop/internal/xfer"
)

func TestEvaluateSimpleChain(t *testing.T) {
	g := dfg.New("chain")
	in := g.AddNode("in", dfg.OpInput, 16)
	a := g.AddNode("a", dfg.OpAdd, 16) // in + coef(a)
	m := g.AddNode("m", dfg.OpMul, 16) // a * coef(m)
	g.MustConnect(in, a)
	g.MustConnect(a, m)
	o := g.AddNode("out", dfg.OpOutput, 16)
	g.MustConnect(m, o)
	coef := func(n dfg.Node) int64 { return 3 }
	out, err := Evaluate(g, map[string]int64{"in": 5}, coef)
	if err != nil {
		t.Fatal(err)
	}
	if out["out"] != (5+3)*3 {
		t.Fatalf("out = %d, want 24", out["out"])
	}
}

func TestEvaluateAllOps(t *testing.T) {
	g := dfg.New("ops")
	x := g.AddNode("x", dfg.OpInput, 16)
	y := g.AddNode("y", dfg.OpInput, 16)
	sub := g.AddNode("sub", dfg.OpSub, 16)
	g.MustConnect(x, sub)
	g.MustConnect(y, sub)
	div := g.AddNode("div", dfg.OpDiv, 16)
	g.MustConnect(x, div)
	g.MustConnect(y, div)
	cmp := g.AddNode("cmp", dfg.OpCmp, 16)
	g.MustConnect(x, cmp)
	g.MustConnect(y, cmp)
	for _, src := range []int{sub, div, cmp} {
		o := g.AddNode("o"+g.Nodes[src].Name, dfg.OpOutput, 16)
		g.MustConnect(src, o)
	}
	out, err := Evaluate(g, map[string]int64{"x": 7, "y": 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["osub"] != 4 || out["odiv"] != 2 || out["ocmp"] != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestEvaluateDivByZero(t *testing.T) {
	g := dfg.New("z")
	x := g.AddNode("x", dfg.OpInput, 16)
	y := g.AddNode("y", dfg.OpInput, 16)
	d := g.AddNode("d", dfg.OpDiv, 16)
	g.MustConnect(x, d)
	g.MustConnect(y, d)
	if _, err := Evaluate(g, map[string]int64{"x": 1, "y": 0}, nil); err == nil {
		t.Fatal("division by zero accepted")
	}
}

func TestEvaluateMemOps(t *testing.T) {
	g := dfg.New("mem")
	rd := g.AddMemNode("rd", dfg.OpMemRd, 16, "MA")
	a := g.AddNode("a", dfg.OpAdd, 16)
	g.MustConnect(rd, a)
	wr := g.AddMemNode("wr", dfg.OpMemWr, 16, "MA")
	g.MustConnect(a, wr)
	coef := func(n dfg.Node) int64 { return 10 }
	out, err := Evaluate(g, nil, coef)
	if err != nil {
		t.Fatal(err)
	}
	if out["wr"] != 20 { // rd=10, a=10+10
		t.Fatalf("wr = %d", out["wr"])
	}
}

// bindAR binds every frontier design of the AR filter under experiment-2
// settings.
func bindAR(t *testing.T) (*dfg.Graph, []*rtl.Netlist) {
	t.Helper()
	g := dfg.ARLatticeFilter(16)
	cfg := bad.Config{
		Lib:     lib.Table1Library(),
		Style:   bad.Style{MultiCycle: true},
		Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		MaxArea: chip.MOSISPackages()[1].ProjectArea(),
		Perf:    stats.Constraint{Bound: 20000, MinProb: 1},
		Delay:   stats.Constraint{Bound: 30000, MinProb: 0.8},
	}
	res, err := bad.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nets []*rtl.Netlist
	for _, d := range res.Designs {
		cyc := rtl.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
		n, err := rtl.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, n)
	}
	if len(nets) == 0 {
		t.Fatal("no designs to simulate")
	}
	return g, nets
}

// TestNetlistMatchesGoldenModel is the synthesis-verification experiment:
// every bound AR-filter netlist computes exactly what the behavior says,
// over a set of input vectors.
func TestNetlistMatchesGoldenModel(t *testing.T) {
	g, nets := bindAR(t)
	vectors := []map[string]int64{
		{"x1": 1, "x2": 2, "x3": 3, "x4": 4},
		{"x1": -5, "x2": 17, "x3": 0, "x4": 9},
		{"x1": 1000, "x2": -1000, "x3": 123, "x4": -321},
		{},
	}
	for i, n := range nets {
		if err := Verify(g, n, vectors, nil); err != nil {
			t.Fatalf("netlist %d: %v", i, err)
		}
	}
}

func TestNetlistMatchesGoldenPropertyRandomVectors(t *testing.T) {
	g, nets := bindAR(t)
	n := nets[0]
	f := func(a, b, c, d int16) bool {
		vec := map[string]int64{
			"x1": int64(a), "x2": int64(b), "x3": int64(c), "x4": int64(d),
		}
		return Verify(g, n, []map[string]int64{vec}, nil) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNetlistVerifyAllBenchmarks(t *testing.T) {
	for _, g := range []*dfg.Graph{
		dfg.EllipticWaveFilter(16),
		dfg.FIR(8, 16),
		dfg.DiffEq(16),
	} {
		cfg := bad.Config{
			Lib:     lib.ExtendedLibrary(),
			Style:   bad.Style{MultiCycle: true, NoPipelined: true},
			Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
			MaxArea: 4 * chip.MOSISPackages()[1].ProjectArea(),
			MaxII:   80,
		}
		res, err := bad.Predict(g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(res.Designs) == 0 {
			t.Fatalf("%s: no designs", g.Name)
		}
		d := res.Designs[0]
		cyc := rtl.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
		n, err := rtl.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		inputs := map[string]int64{}
		for i, id := range g.Inputs() {
			inputs[g.Nodes[id].Name] = int64(i*13 - 7)
		}
		if err := Verify(g, n, []map[string]int64{inputs}, nil); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
	}
}

// TestOutputsFedByInputsAndMemoryReads: an output fed straight from an
// input or a memory read carries the value loaded for its sample, even when
// a later value reuses the producer's register (here the a+b sum takes over
// a's register) and when samples overlap.
func TestOutputsFedByInputsAndMemoryReads(t *testing.T) {
	g := dfg.New("passthrough")
	a := g.AddNode("a", dfg.OpInput, 16)
	b := g.AddNode("b", dfg.OpInput, 16)
	rd := g.AddMemNode("rd", dfg.OpMemRd, 16, "M")
	sum := g.AddNode("sum", dfg.OpAdd, 16)
	g.MustConnect(a, sum)
	g.MustConnect(b, sum)
	scaled := g.AddNode("scaled", dfg.OpMul, 16)
	g.MustConnect(sum, scaled)
	for _, src := range []int{a, rd, scaled} {
		o := g.AddNode("out_"+g.Nodes[src].Name, dfg.OpOutput, 16)
		g.MustConnect(src, o)
	}
	l := lib.ExtendedLibrary()
	oneCycle := func(n dfg.Node) int {
		if n.Op.NeedsFU() {
			return 1
		}
		return 0
	}
	samples := []map[string]int64{{"a": 3, "b": 4}, {"a": -8, "b": 5}, {"a": 11, "b": 0}, {"a": 2, "b": 9}}
	serial := bad.Design{
		Style: bad.NonPipelined,
		ModuleSet: lib.ModuleSet{
			dfg.OpAdd: l.ModulesFor(dfg.OpAdd)[0],
			dfg.OpMul: l.ModulesFor(dfg.OpMul)[0],
		},
		FUs: map[dfg.Op]int{dfg.OpAdd: 1, dfg.OpMul: 1},
	}
	pipelined := serial
	pipelined.Style, pipelined.II = bad.Pipelined, 1
	for _, d := range []bad.Design{serial, pipelined} {
		n, err := rtl.Bind(g, d, l, oneCycle)
		if err != nil {
			t.Fatal(err)
		}
		if d.Style == bad.NonPipelined && n.RegOf(a) != n.RegOf(sum) {
			t.Fatalf("sum does not reuse a's register (%s, %s)", n.RegOf(a), n.RegOf(sum))
		}
		if d.Style == bad.Pipelined && n.II >= n.Latency {
			t.Fatalf("samples do not overlap: II=%d latency=%d", n.II, n.Latency)
		}
		if err := Verify(g, n, samples, nil); err != nil {
			t.Errorf("II=%d latency=%d: %v", n.II, n.Latency, err)
		}
	}
}

func TestStreamPeakBasics(t *testing.T) {
	if got := StreamPeak(0, 5, 5, 10, 3); got != 0 {
		t.Fatalf("no payload: %v", got)
	}
	if got := StreamPeak(16, 0, 0, 10, 5); got != 0 {
		t.Fatalf("instant handoff holds nothing: %v", got)
	}
	// Single sample, waiting: exactly D resident.
	if got := StreamPeak(16, 5, 1, 100, 1); got != 16 {
		t.Fatalf("single sample peak = %v", got)
	}
}

func TestStreamPeakGrowsWithWait(t *testing.T) {
	short := StreamPeak(32, 2, 2, 10, 20)
	long := StreamPeak(32, 35, 2, 10, 20)
	if long <= short {
		t.Fatalf("long waits must pile samples: %v vs %v", long, short)
	}
}

// TestBufferFormulaCoversStreamPeak checks the paper's B formula against
// the simulated occupancy with one sample of documented headroom.
func TestBufferFormulaCoversStreamPeak(t *testing.T) {
	cases := []struct{ d, w, x, l int }{
		{16, 0, 1, 30}, {32, 5, 2, 10}, {32, 25, 2, 10},
		{64, 40, 8, 20}, {16, 3, 3, 3}, {96, 0, 2, 46},
	}
	for _, c := range cases {
		b := xfer.BufferBits(c.d, c.w, c.x, c.l)
		peak := StreamPeak(c.d, c.w, c.x, c.l, 50)
		if float64(b)+float64(c.d) < peak-1e-9 {
			t.Errorf("D=%d W=%d X=%d l=%d: formula %d (+%d headroom) below simulated peak %.1f",
				c.d, c.w, c.x, c.l, b, c.d, peak)
		}
		// and the formula must not be wildly conservative either
		if float64(b) > peak*3+float64(c.d) {
			t.Errorf("D=%d W=%d X=%d l=%d: formula %d >> peak %.1f", c.d, c.w, c.x, c.l, b, peak)
		}
	}
}

func TestPropStreamPeakMonotoneInSamplesUntilSteadyState(t *testing.T) {
	f := func(w, x, l uint8) bool {
		W, X, L := int(w%40), int(x%8)+1, int(l%20)+1
		p1 := StreamPeak(16, W, X, L, 10)
		p2 := StreamPeak(16, W, X, L, 40)
		return p2 >= p1-1e-9 && !math.IsNaN(p1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTestbenchEmission(t *testing.T) {
	g, nets := bindAR(t)
	n := nets[0]
	vectors := []map[string]int64{
		{"x1": 1, "x2": 2, "x3": 3, "x4": 4},
		{"x1": -9, "x2": 0, "x3": 5, "x4": 7},
	}
	tb, err := Testbench(g, n, vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"module ar_lattice_filter_tb;",
		"dut(.clk(clk), .rst(rst)",
		"// vector 0", "// vector 1",
		"$display(\"PASS\")", "$finish;",
	} {
		if !strings.Contains(tb, want) {
			t.Fatalf("testbench missing %q", want)
		}
	}
	// expected values must be the golden-model outputs
	want, err := Evaluate(g, vectors[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range g.Nodes {
		if nd.Op == dfg.OpOutput {
			if !strings.Contains(tb, fmt.Sprintf("(want %d)", want[nd.Name])) {
				t.Fatalf("expected value %d for %s not baked in", want[nd.Name], nd.Name)
			}
		}
	}
	// driven inputs appear
	if !strings.Contains(tb, "x1 = -9;") {
		t.Fatal("vector-1 input not driven")
	}
}

func TestTestbenchRejectsBadVector(t *testing.T) {
	g := dfg.New("z")
	x := g.AddNode("x", dfg.OpInput, 16)
	y := g.AddNode("y", dfg.OpInput, 16)
	d := g.AddNode("d", dfg.OpDiv, 16)
	g.MustConnect(x, d)
	g.MustConnect(y, d)
	o := g.AddNode("o", dfg.OpOutput, 16)
	g.MustConnect(d, o)
	// the golden model fails on divide-by-zero; Testbench must propagate it
	nets := &rtl.Netlist{}
	_ = nets
	if _, err := Testbench(g, mustBindDiv(t, g), []map[string]int64{{"x": 1, "y": 0}}, nil); err == nil {
		t.Fatal("division-by-zero vector accepted")
	}
}

func mustBindDiv(t *testing.T, g *dfg.Graph) *rtl.Netlist {
	t.Helper()
	cfg := bad.Config{
		Lib:     lib.ExtendedLibrary(),
		Style:   bad.Style{MultiCycle: true, NoPipelined: true},
		Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		MaxArea: 4 * chip.MOSISPackages()[1].ProjectArea(),
		MaxII:   60,
	}
	res, err := bad.Predict(g, cfg)
	if err != nil || len(res.Designs) == 0 {
		t.Fatalf("predict: %v (%d designs)", err, len(res.Designs))
	}
	d := res.Designs[0]
	n, err := rtl.Bind(g, d, cfg.Lib, rtl.OpCyclesFor(d, true, cfg.Clocks.DatapathNS()))
	if err != nil {
		t.Fatal(err)
	}
	return n
}
