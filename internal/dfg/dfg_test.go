package dfg

import (
	"strings"
	"testing"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	in := g.AddNode("in", OpInput, 16)
	a := g.AddNode("a", OpAdd, 16)
	b := g.AddNode("b", OpMul, 16)
	c := g.AddNode("c", OpAdd, 16)
	out := g.AddNode("out", OpOutput, 16)
	g.MustConnect(in, a)
	g.MustConnect(in, b)
	g.MustConnect(a, c)
	g.MustConnect(b, c)
	g.MustConnect(c, out)
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return g
}

func TestConnectErrors(t *testing.T) {
	g := New("t")
	a := g.AddNode("a", OpAdd, 16)
	if err := g.Connect(a, 99); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := g.Connect(-1, a); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if err := g.Connect(a, a); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := New("cyc")
	a := g.AddNode("a", OpAdd, 16)
	b := g.AddNode("b", OpAdd, 16)
	g.MustConnect(a, b)
	g.MustConnect(b, a)
	err := g.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestValidateDuplicateName(t *testing.T) {
	g := New("dup")
	g.AddNode("a", OpAdd, 16)
	g.AddNode("a", OpAdd, 16)
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestValidateIORules(t *testing.T) {
	g := New("io")
	in := g.AddNode("in", OpInput, 16)
	a := g.AddNode("a", OpAdd, 16)
	g.MustConnect(a, in) // input with a predecessor
	if err := g.Validate(); err == nil {
		t.Fatal("input with predecessor accepted")
	}

	g2 := New("io2")
	o := g2.AddNode("o", OpOutput, 16)
	_ = o
	if err := g2.Validate(); err == nil {
		t.Fatal("output without producer accepted")
	}
}

func TestValidateMemoryNode(t *testing.T) {
	g := New("m")
	g.AddNode("r", OpMemRd, 16) // missing memory block name
	if err := g.Validate(); err == nil {
		t.Fatal("memory node without block accepted")
	}
	g2 := New("m2")
	g2.AddMemNode("r", OpMemRd, 16, "MA")
	if err := g2.Validate(); err != nil {
		t.Fatalf("valid memory node rejected: %v", err)
	}
}

func TestTopoOrder(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d->%d violates topo order", e.From, e.To)
		}
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	lv, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	// in=0, a=b=0 (inputs add no depth), c=1, out=2 (c is compute).
	byName := map[string]int{}
	for _, n := range g.Nodes {
		byName[n.Name] = lv[n.ID]
	}
	if byName["a"] != 0 || byName["b"] != 0 {
		t.Fatalf("first compute rank levels = %v", byName)
	}
	if byName["c"] != 1 {
		t.Fatalf("c level = %d", byName["c"])
	}
}

func TestCriticalPath(t *testing.T) {
	g := diamond(t)
	cp, err := g.CriticalPath(func(n Node) float64 {
		switch n.Op {
		case OpMul:
			return 10
		case OpAdd:
			return 1
		default:
			return 0
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp != 11 { // mul(10) -> add c(1)
		t.Fatalf("critical path = %v, want 11", cp)
	}
}

func TestOpCounts(t *testing.T) {
	g := diamond(t)
	c := g.OpCounts()
	if c[OpAdd] != 2 || c[OpMul] != 1 {
		t.Fatalf("OpCounts = %v", c)
	}
	if _, ok := c[OpInput]; ok {
		t.Fatal("I/O must not be counted as FU ops")
	}
}

func TestSubgraph(t *testing.T) {
	g := diamond(t)
	// take nodes a and c (IDs 1 and 3)
	sub, remap := g.Subgraph("half", []int{1, 3})
	if len(sub.Nodes) != 2 {
		t.Fatalf("subgraph nodes = %d", len(sub.Nodes))
	}
	if len(sub.Edges) != 1 {
		t.Fatalf("subgraph edges = %d, want 1 (a->c)", len(sub.Edges))
	}
	if sub.Edges[0].From != remap[1] || sub.Edges[0].To != remap[3] {
		t.Fatalf("subgraph edge = %+v remap=%v", sub.Edges[0], remap)
	}
}

func TestCutsBetween(t *testing.T) {
	g := diamond(t)
	// a,b in partition 0; c in partition 1.
	assign := map[int]int{1: 0, 2: 0, 3: 1}
	cuts := g.CutsBetween(assign)
	// expected: ext->0 (in consumed by a and b: one source value, 16 bits),
	// 0->1 (a and b to c: 32 bits), 1->ext (c to out: 16 bits)
	want := map[[2]int][2]int{
		{-1, 0}: {16, 1},
		{0, 1}:  {32, 2},
		{1, -1}: {16, 1},
	}
	if len(cuts) != len(want) {
		t.Fatalf("cuts = %+v", cuts)
	}
	for _, c := range cuts {
		w, ok := want[[2]int{c.From, c.To}]
		if !ok || c.Bits != w[0] || c.Values != w[1] {
			t.Fatalf("unexpected cut %+v (want %v)", c, want)
		}
	}
}

func TestCutsBetweenFanoutCountedOnce(t *testing.T) {
	g := New("fan")
	in := g.AddNode("in", OpInput, 8)
	a := g.AddNode("a", OpAdd, 8)
	b := g.AddNode("b", OpAdd, 8)
	c := g.AddNode("c", OpAdd, 8)
	g.MustConnect(in, a)
	g.MustConnect(a, b)
	g.MustConnect(a, c)
	assign := map[int]int{a: 0, b: 1, c: 1}
	_ = in
	cuts := g.CutsBetween(assign)
	for _, cut := range cuts {
		if cut.From == 0 && cut.To == 1 {
			if cut.Bits != 8 || cut.Values != 1 {
				t.Fatalf("fanout to same partition double counted: %+v", cut)
			}
			return
		}
	}
	t.Fatal("0->1 cut missing")
}

func TestPartitionDAG(t *testing.T) {
	g := diamond(t)
	assign := map[int]int{1: 0, 2: 0, 3: 1}
	dep := g.PartitionDAG(assign, 2)
	if !dep[0][1] || dep[1][0] {
		t.Fatalf("dep = %v", dep)
	}
}

func TestARLatticeFilterShape(t *testing.T) {
	g := ARLatticeFilter(16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.OpCounts()
	if c[OpMul] != 16 || c[OpAdd] != 12 {
		t.Fatalf("AR filter op mix = %v, want 16 mul / 12 add", c)
	}
	if got := len(g.Inputs()); got != 4 {
		t.Fatalf("AR filter inputs = %d, want 4", got)
	}
	if got := len(g.Outputs()); got != 2 {
		t.Fatalf("AR filter outputs = %d, want 2", got)
	}
}

func TestARFilterPartitions(t *testing.T) {
	g := ARLatticeFilter(16)
	parts := ARFilterPartitions(g)
	for n, sets := range parts {
		if len(sets) != n {
			t.Fatalf("partitioning %d has %d sets", n, len(sets))
		}
		total := 0
		seen := map[int]bool{}
		for _, set := range sets {
			if len(set) == 0 {
				t.Fatalf("partitioning %d has an empty partition", n)
			}
			for _, id := range set {
				if seen[id] {
					t.Fatalf("node %d in two partitions", id)
				}
				seen[id] = true
				if !g.Nodes[id].Op.NeedsFU() {
					t.Fatalf("I/O node %d included in partition", id)
				}
			}
			total += len(set)
		}
		if total != 28 {
			t.Fatalf("partitioning %d covers %d compute nodes, want 28", n, total)
		}
		// no mutual dependency between partitions
		assign := map[int]int{}
		for pi, set := range sets {
			for _, id := range set {
				assign[id] = pi
			}
		}
		dep := g.PartitionDAG(assign, n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if dep[i][j] && dep[j][i] {
					t.Fatalf("partitions %d and %d mutually dependent", i, j)
				}
			}
		}
	}
}

func TestEllipticWaveFilterShape(t *testing.T) {
	g := EllipticWaveFilter(16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.OpCounts()
	if c[OpAdd] != 26 || c[OpMul] != 8 {
		t.Fatalf("EWF op mix = %v, want 26 add / 8 mul", c)
	}
}

func TestFIRShape(t *testing.T) {
	for _, taps := range []int{2, 5, 8, 16} {
		g := FIR(taps, 16)
		if err := g.Validate(); err != nil {
			t.Fatalf("FIR(%d): %v", taps, err)
		}
		c := g.OpCounts()
		if c[OpMul] != taps || c[OpAdd] != taps-1 {
			t.Fatalf("FIR(%d) op mix = %v", taps, c)
		}
	}
}

func TestFIRPanicsOnOneTap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FIR(1) should panic")
		}
	}()
	FIR(1, 16)
}

func TestDiffEqShape(t *testing.T) {
	g := DiffEq(16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.OpCounts()
	if c[OpMul] != 6 || c[OpAdd] != 2 || c[OpSub] != 2 || c[OpCmp] != 1 {
		t.Fatalf("DiffEq op mix = %v", c)
	}
}

func TestBenchmarksAcyclicLevels(t *testing.T) {
	for _, g := range []*Graph{ARLatticeFilter(16), EllipticWaveFilter(16), FIR(8, 16), DiffEq(16)} {
		if _, err := g.Levels(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
	}
}

func TestDCT8Shape(t *testing.T) {
	g := DCT8(16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	c := g.OpCounts()
	if c[OpMul] != 6 || c[OpAdd] != 9 || c[OpSub] != 9 {
		t.Fatalf("DCT8 op mix = %v", c)
	}
	if len(g.Inputs()) != 8 || len(g.Outputs()) != 8 {
		t.Fatalf("DCT8 io = %d/%d", len(g.Inputs()), len(g.Outputs()))
	}
}

func TestMatMulShape(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		g := MatMul(n, 16)
		if err := g.Validate(); err != nil {
			t.Fatalf("MatMul(%d): %v", n, err)
		}
		c := g.OpCounts()
		if c[OpMul] != n*n || c[OpAdd] != n*(n-1) {
			t.Fatalf("MatMul(%d) op mix = %v", n, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul(1) should panic")
		}
	}()
	MatMul(1, 16)
}

func TestStressDFGValid(t *testing.T) {
	g := Stress(4, 8, 16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := g.OpCounts()
	if counts[OpAdd] != 16 || counts[OpMul] != 16 {
		t.Fatalf("op mix wrong: %v", counts)
	}
	if len(LevelPartitions(g, 3)) != 3 {
		t.Fatal("stress graph does not partition")
	}
}

func TestPartitionGraphBoundaryMarkers(t *testing.T) {
	g := diamond(t) // in -> a,b -> c -> out
	// partition {c}: incoming values a and b, outgoing value c.
	sub, remap := g.PartitionGraph("pc", []int{3})
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sub.Inputs()) != 2 {
		t.Fatalf("inputs = %d, want 2 (a, b)", len(sub.Inputs()))
	}
	if len(sub.Outputs()) != 1 {
		t.Fatalf("outputs = %d, want 1", len(sub.Outputs()))
	}
	names := map[string]bool{}
	for _, n := range sub.Nodes {
		names[n.Name] = true
	}
	if !names["a"] || !names["b"] || !names["out:c"] {
		t.Fatalf("marker names wrong: %v", names)
	}
	if _, ok := remap[3]; !ok {
		t.Fatal("remap missing partition node")
	}
}

func TestPartitionGraphPreservesOperandOrder(t *testing.T) {
	// d = x - y with x external and y internal: the subtraction's operand
	// order must survive the marker rewiring.
	g := New("ord")
	x := g.AddNode("x", OpInput, 16)
	y := g.AddNode("y", OpAdd, 16)
	g.MustConnect(x, y) // y = x + coef
	d := g.AddNode("d", OpSub, 16)
	g.MustConnect(x, d) // operand 0: external x
	g.MustConnect(y, d) // operand 1: internal y
	sub, remap := g.PartitionGraph("p", []int{y, d})
	preds := sub.Preds(remap[d])
	if len(preds) != 2 {
		t.Fatalf("preds = %v", preds)
	}
	if sub.Nodes[preds[0]].Name != "x" || sub.Nodes[preds[1]].Name != "y" {
		t.Fatalf("operand order lost: %s, %s",
			sub.Nodes[preds[0]].Name, sub.Nodes[preds[1]].Name)
	}
}

func TestPartitionGraphFanInCountedOnce(t *testing.T) {
	g := New("fanin")
	a := g.AddNode("a", OpAdd, 16)
	b := g.AddNode("b", OpAdd, 16)
	c := g.AddNode("c", OpAdd, 16)
	g.MustConnect(a, b)
	g.MustConnect(a, c)
	sub, _ := g.PartitionGraph("p", []int{b, c})
	if got := len(sub.Inputs()); got != 1 {
		t.Fatalf("external producer must appear once: %d inputs", got)
	}
}
