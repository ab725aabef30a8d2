package dfg

import (
	"fmt"
	"math/rand"
	"sort"
)

// ARLatticeFilter builds the AR lattice filter element used in the paper's
// experiments (paper Fig. 6): 16 multiplications and 12 additions with 4
// primary inputs and 2 primary outputs, arranged as four 4-multiplier /
// 2-adder lattice blocks in two ranks joined by combining adders. The exact
// netlist of Fig. 6 is not printed in the paper text; this is the canonical
// ADAM AR-filter operation mix (16 mul / 12 add) with the same depth class.
//
// width is the datapath bit width (the paper uses 16).
func ARLatticeFilter(width int) *Graph {
	g := New("ar-lattice-filter")

	// Primary inputs: four sample inputs.
	x := make([]int, 4)
	for i := range x {
		x[i] = g.AddNode(fmt.Sprintf("x%d", i+1), OpInput, width)
	}

	// block wires a 4-mul/2-add lattice block:
	//   o1 = a*k1 + b*k2 ; o2 = a*k3 + b*k4
	// Lattice coefficients k are internal constants, so each multiplier has
	// a single data operand.
	block := func(tag string, a, b int) (o1, o2 int) {
		m := make([]int, 4)
		for i := range m {
			m[i] = g.AddNode(fmt.Sprintf("%s_m%d", tag, i+1), OpMul, width)
		}
		g.MustConnect(a, m[0])
		g.MustConnect(b, m[1])
		g.MustConnect(a, m[2])
		g.MustConnect(b, m[3])
		o1 = g.AddNode(tag+"_a1", OpAdd, width)
		o2 = g.AddNode(tag+"_a2", OpAdd, width)
		g.MustConnect(m[0], o1)
		g.MustConnect(m[1], o1)
		g.MustConnect(m[2], o2)
		g.MustConnect(m[3], o2)
		return o1, o2
	}

	// Rank 1: two blocks over the sample inputs.
	b1o1, b1o2 := block("b1", x[0], x[1])
	b2o1, b2o2 := block("b2", x[2], x[3])

	// Combining adders between ranks.
	z1 := g.AddNode("z1", OpAdd, width)
	g.MustConnect(b1o1, z1)
	g.MustConnect(b2o1, z1)
	z2 := g.AddNode("z2", OpAdd, width)
	g.MustConnect(b1o2, z2)
	g.MustConnect(b2o2, z2)

	// Rank 2: two blocks mixing the combined values (the lattice's forward
	// and backward paths cross between ranks).
	b3o1, b3o2 := block("b3", z1, z2)
	b4o1, b4o2 := block("b4", z2, z1)

	// Final combining adders produce the two filter outputs.
	y1 := g.AddNode("y1s", OpAdd, width)
	g.MustConnect(b3o1, y1)
	g.MustConnect(b4o1, y1)
	y2 := g.AddNode("y2s", OpAdd, width)
	g.MustConnect(b3o2, y2)
	g.MustConnect(b4o2, y2)

	out1 := g.AddNode("y1", OpOutput, width)
	g.MustConnect(y1, out1)
	out2 := g.AddNode("y2", OpOutput, width)
	g.MustConnect(y2, out2)
	return g
}

// ARFilterPartitions returns the node-ID sets of the paper's three manual
// partitionings of the AR filter: 1 partition (whole graph), 2 partitions (a
// horizontal cut from the middle of the graph) and 3 partitions of
// approximately equal size. Each inner slice lists the node IDs of one
// partition; I/O marker nodes are excluded (they belong to the external
// world).
func ARFilterPartitions(g *Graph) map[int][][]int {
	return map[int][][]int{
		1: LevelPartitions(g, 1),
		2: LevelPartitions(g, 2),
		3: LevelPartitions(g, 3),
	}
}

// LevelPartitions splits a graph's compute nodes into n partitions of
// approximately equal operation count by packing a level-ordered
// (topological) node sequence into consecutive blocks. Because every data
// edge goes from a lower level to a strictly higher one, all inter-partition
// data flows forward: the partition dependency graph is acyclic, satisfying
// the no-mutual-dependency restriction of paper section 2.3.
func LevelPartitions(g *Graph, n int) [][]int {
	if n < 1 {
		panic("dfg: LevelPartitions needs n >= 1")
	}
	lv, err := g.Levels()
	if err != nil {
		panic("dfg: LevelPartitions needs an acyclic graph: " + err.Error())
	}
	var compute []int
	for _, nd := range g.Nodes {
		if nd.Op.NeedsFU() || nd.Op.IsMemory() {
			compute = append(compute, nd.ID)
		}
	}
	sort.SliceStable(compute, func(i, j int) bool {
		if lv[compute[i]] != lv[compute[j]] {
			return lv[compute[i]] < lv[compute[j]]
		}
		return compute[i] < compute[j]
	})
	if n > len(compute) {
		n = len(compute)
	}
	parts := make([][]int, n)
	for i, id := range compute {
		p := i * n / len(compute)
		parts[p] = append(parts[p], id)
	}
	return parts
}

// EllipticWaveFilter builds the classic fifth-order elliptic wave filter
// high-level-synthesis benchmark: 26 additions and 8 multiplications with a
// long dependence chain. It exercises add-dominated workloads, complementing
// the multiply-dominated AR filter.
func EllipticWaveFilter(width int) *Graph {
	g := New("elliptic-wave-filter")
	in := g.AddNode("in", OpInput, width)
	sv := make([]int, 7) // state-variable inputs
	for i := range sv {
		sv[i] = g.AddNode(fmt.Sprintf("sv%d", i+1), OpInput, width)
	}
	add := func(name string, a, b int) int {
		id := g.AddNode(name, OpAdd, width)
		g.MustConnect(a, id)
		g.MustConnect(b, id)
		return id
	}
	mul := func(name string, a int) int {
		id := g.AddNode(name, OpMul, width)
		g.MustConnect(a, id)
		return id
	}
	// A faithful-shape EWF: three cascaded second-order sections plus an
	// output section, 26 adds and 8 coefficient multiplies.
	sec := func(tag string, x, s1, s2 int) (y, ns1 int) {
		a1 := add(tag+"_a1", x, s1)
		m1 := mul(tag+"_m1", a1)
		a2 := add(tag+"_a2", m1, s2)
		m2 := mul(tag+"_m2", a2)
		a3 := add(tag+"_a3", a1, m2)
		a4 := add(tag+"_a4", a3, s2)
		y = add(tag+"_a5", a4, a2)
		ns1 = add(tag+"_a6", a3, a1)
		return
	}
	y1, t1 := sec("s1", in, sv[0], sv[1])
	y2, t2 := sec("s2", y1, sv[2], sv[3])
	y3, t3 := sec("s3", y2, sv[4], sv[5])
	// Output section: 2 multiplies, 8 adds.
	c1 := add("o_a1", t1, t2)
	c2 := add("o_a2", t3, sv[6])
	m7 := mul("o_m1", c1)
	m8 := mul("o_m2", c2)
	c3 := add("o_a3", m7, m8)
	c4 := add("o_a4", c3, y3)
	c5 := add("o_a5", c4, y1)
	c6 := add("o_a6", c5, y2)
	c7 := add("o_a7", c6, t1)
	c8 := add("o_a8", c7, t3)
	out := g.AddNode("out", OpOutput, width)
	g.MustConnect(c8, out)
	so := g.AddNode("state_out", OpOutput, width)
	g.MustConnect(c4, so)
	return g
}

// FIR builds an n-tap finite-impulse-response filter: n coefficient
// multiplications folded by an adder tree. It produces wide, shallow graphs
// whose parallelism scales with n.
func FIR(taps, width int) *Graph {
	if taps < 2 {
		panic("dfg: FIR needs at least 2 taps")
	}
	g := New(fmt.Sprintf("fir-%d", taps))
	layer := make([]int, taps)
	for i := 0; i < taps; i++ {
		x := g.AddNode(fmt.Sprintf("x%d", i), OpInput, width)
		m := g.AddNode(fmt.Sprintf("m%d", i), OpMul, width)
		g.MustConnect(x, m)
		layer[i] = m
	}
	lvl := 0
	for len(layer) > 1 {
		var next []int
		for i := 0; i+1 < len(layer); i += 2 {
			a := g.AddNode(fmt.Sprintf("a%d_%d", lvl, i/2), OpAdd, width)
			g.MustConnect(layer[i], a)
			g.MustConnect(layer[i+1], a)
			next = append(next, a)
		}
		if len(layer)%2 == 1 {
			next = append(next, layer[len(layer)-1])
		}
		layer = next
		lvl++
	}
	out := g.AddNode("y", OpOutput, width)
	g.MustConnect(layer[0], out)
	return g
}

// DiffEq builds the HAL differential-equation solver benchmark (Paulin &
// Knight): 6 multiplications, 2 additions, 2 subtractions, 1 comparison.
// It exercises mixed operation types including the comparison op.
func DiffEq(width int) *Graph {
	g := New("diffeq")
	xI := g.AddNode("x", OpInput, width)
	yI := g.AddNode("y", OpInput, width)
	uI := g.AddNode("u", OpInput, width)
	dxI := g.AddNode("dx", OpInput, width)
	aI := g.AddNode("a", OpInput, width)

	bin := func(name string, op Op, a, b int) int {
		id := g.AddNode(name, op, width)
		g.MustConnect(a, id)
		g.MustConnect(b, id)
		return id
	}
	m1 := bin("m1", OpMul, uI, dxI) // u*dx
	m2 := bin("m2", OpMul, m1, xI)  // u*dx*x  (3x folded into constants)
	m3 := bin("m3", OpMul, yI, dxI) // y*dx    (3y*dx with constant)
	m4 := bin("m4", OpMul, m2, m3)  // cross term
	s1 := bin("s1", OpSub, uI, m4)  // u - term
	m5 := bin("m5", OpMul, dxI, uI) // dx*u
	s2 := bin("s2", OpSub, s1, m5)  // u1
	m6 := bin("m6", OpMul, uI, dxI) // u*dx for y update
	a1 := bin("a1", OpAdd, yI, m6)  // y1
	a2 := bin("a2", OpAdd, xI, dxI) // x1
	c1 := bin("c1", OpCmp, a2, aI)  // x1 < a

	for name, src := range map[string]int{"x1": a2, "y1": a1, "u1": s2, "c": c1} {
		o := g.AddNode(name, OpOutput, width)
		g.MustConnect(src, o)
	}
	return g
}

// DCT8 builds an 8-point discrete cosine transform butterfly network
// (Loeffler-style shape): 8 inputs, 8 outputs, with multiplier rotations in
// the middle ranks. Wide and moderately deep, it stresses both pins (16
// values cross any bisection) and multiplier allocation.
func DCT8(width int) *Graph {
	g := New("dct8")
	x := make([]int, 8)
	for i := range x {
		x[i] = g.AddNode(fmt.Sprintf("x%d", i), OpInput, width)
	}
	add := func(name string, a, b int) int {
		id := g.AddNode(name, OpAdd, width)
		g.MustConnect(a, id)
		g.MustConnect(b, id)
		return id
	}
	sub := func(name string, a, b int) int {
		id := g.AddNode(name, OpSub, width)
		g.MustConnect(a, id)
		g.MustConnect(b, id)
		return id
	}
	rot := func(name string, a int) int {
		id := g.AddNode(name, OpMul, width)
		g.MustConnect(a, id)
		return id
	}
	// Stage 1: butterflies over mirrored pairs.
	var s1a, s1s [4]int
	for i := 0; i < 4; i++ {
		s1a[i] = add(fmt.Sprintf("s1a%d", i), x[i], x[7-i])
		s1s[i] = sub(fmt.Sprintf("s1s%d", i), x[i], x[7-i])
	}
	// Stage 2: even part butterflies, odd part rotations.
	e0 := add("e0", s1a[0], s1a[3])
	e1 := add("e1", s1a[1], s1a[2])
	e2 := sub("e2", s1a[0], s1a[3])
	e3 := sub("e3", s1a[1], s1a[2])
	var o [4]int
	for i := 0; i < 4; i++ {
		o[i] = rot(fmt.Sprintf("o%d", i), s1s[i])
	}
	// Stage 3: final outputs.
	outs := []int{
		add("y0", e0, e1),
		sub("y4", e0, e1),
		rot("y2", e2),
		rot("y6", e3),
		add("y1s", o[0], o[1]),
		sub("y3s", o[1], o[2]),
		add("y5s", o[2], o[3]),
		sub("y7s", o[0], o[3]),
	}
	for i, src := range outs {
		id := g.AddNode(fmt.Sprintf("out%d", i), OpOutput, width)
		g.MustConnect(src, id)
	}
	return g
}

// MatMul builds an n x n matrix-vector multiply: n^2 multiplications folded
// by n adder trees. It scales the graph size quadratically for capacity and
// throughput experiments.
func MatMul(n, width int) *Graph {
	if n < 2 {
		panic("dfg: MatMul needs n >= 2")
	}
	g := New(fmt.Sprintf("matvec-%d", n))
	x := make([]int, n)
	for i := range x {
		x[i] = g.AddNode(fmt.Sprintf("x%d", i), OpInput, width)
	}
	for row := 0; row < n; row++ {
		terms := make([]int, n)
		for col := 0; col < n; col++ {
			m := g.AddNode(fmt.Sprintf("m%d_%d", row, col), OpMul, width)
			g.MustConnect(x[col], m)
			terms[col] = m
		}
		for len(terms) > 1 {
			var next []int
			for i := 0; i+1 < len(terms); i += 2 {
				a := g.AddNode(fmt.Sprintf("a%d_%d_%d", row, len(terms), i), OpAdd, width)
				g.MustConnect(terms[i], a)
				g.MustConnect(terms[i+1], a)
				next = append(next, a)
			}
			if len(terms)%2 == 1 {
				next = append(next, terms[len(terms)-1])
			}
			terms = next
		}
		out := g.AddNode(fmt.Sprintf("y%d", row), OpOutput, width)
		g.MustConnect(terms[0], out)
	}
	return g
}

// Stress builds a synthetic layered graph for stress workloads: `levels`
// alternating add/mul levels of `width` nodes each, every node fed by two
// neighbors of the previous level, with input markers ahead of the first
// level and output markers after the last. The result is valid (acyclic,
// fully connected) and much larger than the paper's benchmarks, so it
// exercises scheduling and integration on a scale the original system
// never reached.
func Stress(levels, width, bits int) *Graph {
	g := New(fmt.Sprintf("stress-%dx%d", levels, width))
	prev := make([]int, width)
	for i := range prev {
		prev[i] = g.AddNode(fmt.Sprintf("in%d", i), OpInput, bits)
	}
	for l := 0; l < levels; l++ {
		op := OpAdd
		if l%2 == 1 {
			op = OpMul
		}
		cur := make([]int, width)
		for i := 0; i < width; i++ {
			id := g.AddNode(fmt.Sprintf("n%d_%d", l, i), op, bits)
			g.MustConnect(prev[i], id)
			g.MustConnect(prev[(i+1)%width], id)
			cur[i] = id
		}
		prev = cur
	}
	for i, id := range prev {
		out := g.AddNode(fmt.Sprintf("out%d", i), OpOutput, bits)
		g.MustConnect(id, out)
	}
	return g
}

// RandomDAG builds a pseudo-random acyclic behavior for fuzz-style tests:
// nIn primary inputs feeding nOps operations drawn from {add, sub, mul}
// whose operands come from earlier nodes only (acyclicity by construction),
// with every sink exposed as a primary output. The same seed always yields
// the same graph.
func RandomDAG(seed int64, nIn, nOps, width int) *Graph {
	if nIn < 1 || nOps < 1 {
		panic("dfg: RandomDAG needs at least one input and one op")
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(fmt.Sprintf("rand-%d", seed))
	var producers []int
	for i := 0; i < nIn; i++ {
		producers = append(producers, g.AddNode(fmt.Sprintf("in%d", i), OpInput, width))
	}
	ops := []Op{OpAdd, OpSub, OpMul}
	for i := 0; i < nOps; i++ {
		op := ops[rng.Intn(len(ops))]
		id := g.AddNode(fmt.Sprintf("n%d", i), op, width)
		// one or two operands from earlier producers (one-operand binaries
		// become coefficient ops with a pseudo-random constant)
		a := producers[rng.Intn(len(producers))]
		g.MustConnect(a, id)
		if rng.Intn(4) > 0 { // 75%: two data operands
			b := producers[rng.Intn(len(producers))]
			if b != a {
				g.MustConnect(b, id)
			}
		}
		if len(g.Preds(id)) < 2 {
			g.Nodes[id].Coef = int64(rng.Intn(15) + 1)
			g.Nodes[id].HasCoef = true
		}
		producers = append(producers, id)
	}
	// Expose every sink as an output so nothing is dead.
	nOut := 0
	for _, n := range append([]Node(nil), g.Nodes...) {
		if n.Op.NeedsFU() && len(g.Succs(n.ID)) == 0 {
			out := g.AddNode(fmt.Sprintf("out%d", nOut), OpOutput, width)
			g.MustConnect(n.ID, out)
			nOut++
		}
	}
	return g
}
