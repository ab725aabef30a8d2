// Package alloc implements the register and multiplexer allocation
// predictions of BAD (paper section 2.4: "detailed predictions on register
// and multiplexer allocation"). Given a schedule and a functional-unit
// allocation, it estimates:
//
//   - register bits: the maximum number of value bits simultaneously live
//     (the left-edge algorithm achieves this bound exactly);
//   - 1-bit 2:1 multiplexers: steering logic in front of shared FU input
//     ports and shared registers;
//   - interconnect count: the number of point-to-point nets, which feeds
//     the wiring-area model.
//
// For pipelined designs, lifetimes are folded modulo the initiation
// interval: a value that lives longer than one interval coexists with its
// successors from younger samples, so it occupies multiple register slots.
package alloc

import (
	"slices"

	"chop/internal/dfg"
	"chop/internal/sched"
)

// Alloc is the predicted storage/steering requirement of one design point.
type Alloc struct {
	// RegisterBits is the peak number of simultaneously live value bits.
	RegisterBits int
	// Mux1Bit is the number of 1-bit 2:1 multiplexer cells.
	Mux1Bit int
	// Nets is the interconnect count for the wiring model.
	Nets int
}

// Estimate computes the allocation for a scheduled partition. fus is the
// functional-unit allocation used to produce the schedule; ii is the
// initiation interval in cycles (pass the schedule latency, or any value
// >= latency, for non-pipelined designs). It is Estimator.Estimate for one
// schedule.
func Estimate(p sched.Problem, res sched.Result, fus map[dfg.Op]int, ii int) Alloc {
	counts := p.G.OpCounts()
	ops := make([]dfg.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	dense := make([]int, len(ops))
	for i, op := range ops {
		dense[i] = fus[op]
	}
	dur := make([]int, len(p.G.Nodes))
	for id, n := range p.G.Nodes {
		if n.Op.NeedsFU() {
			dur[id] = max(p.Cycles(n), 1)
		}
	}
	return NewEstimator(p.G, ops).Estimate(dur, res.Start, dense, ii)
}

// Estimator computes the allocation of many schedules of one graph. The
// terms that depend on the graph alone are computed once, by NewEstimator:
// the datapath width, the value and edge counts, and the distinct operand
// sources of each op type's input ports. An Estimator serves one goroutine
// at a time.
type Estimator struct {
	width, values, edges int
	// lives lists the nodes that produce a value (every node but the
	// output markers), each with its width, whether an FU computes it, and
	// the consumers whose start ends its lifetime (output markers, whose
	// buffering is accounted elsewhere, excluded).
	lives []life
	// count and sources are per op type, in the order of the ops passed
	// to NewEstimator: the node count, and the distinct producers feeding
	// each operand position.
	count     []int
	sources   [][]int
	occupancy []int
}

type life struct {
	id, width int
	computed  bool
	consumers []int
}

// NewEstimator prepares the estimation of g's schedules. ops must list
// every op type of g's FU-consuming nodes; Estimate takes the FU
// allocation in the same order.
func NewEstimator(g *dfg.Graph, ops []dfg.Op) *Estimator {
	e := &Estimator{
		width:   datapathWidth(g),
		edges:   len(g.Edges),
		count:   make([]int, len(ops)),
		sources: make([][]int, len(ops)),
	}
	for id, n := range g.Nodes {
		if n.Op.NeedsFU() || n.Op == dfg.OpInput {
			e.values++
		}
		if n.Op == dfg.OpOutput {
			continue
		}
		l := life{id: id, width: n.Width, computed: n.Op.NeedsFU()}
		for _, su := range g.Succs(id) {
			if g.Nodes[su].Op != dfg.OpOutput {
				l.consumers = append(l.consumers, su)
			}
		}
		e.lives = append(e.lives, l)
	}
	for i, op := range ops {
		e.sources[i] = make([]int, inputPorts(op))
		for pos := range e.sources[i] {
			distinct := make(map[int]bool)
			for _, nd := range g.Nodes {
				if nd.Op != op {
					continue
				}
				preds := g.Preds(nd.ID)
				if pos < len(preds) {
					distinct[preds[pos]] = true
				}
			}
			e.sources[i][pos] = len(distinct)
		}
	}
	for _, n := range g.Nodes {
		if i := slices.Index(ops, n.Op); i >= 0 {
			e.count[i]++
		}
	}
	return e
}

// Estimate computes the allocation of one schedule: dur and start give
// each node's duration (0 for nodes without an FU) and start cycle, fus
// the FU count per op type in NewEstimator's order, and ii the initiation
// interval as for the package-level Estimate.
func (e *Estimator) Estimate(dur, start, fus []int, ii int) Alloc {
	if ii < 1 {
		ii = 1
	}

	// ---- register bits: peak live bits over the folded schedule ----
	if cap(e.occupancy) < ii {
		e.occupancy = make([]int, ii)
	}
	occupancy := e.occupancy[:ii]
	clear(occupancy)
	addLife := func(from, to, width int) {
		if to < from {
			to = from
		}
		if to-from+1 >= ii {
			// Alive a full interval (or more): permanently resident.
			for s := 0; s < ii; s++ {
				occupancy[s] += width * ((to - from) / ii)
			}
			// remainder handled below by the partial span
		}
		span := (to - from) % ii
		for k := 0; k <= span; k++ {
			occupancy[(from+k)%ii] += width
		}
	}
	for _, l := range e.lives {
		// Birth: when the value becomes available. Inputs are available at
		// cycle 0 (the paper assumes all partition inputs arrive before
		// execution starts); computed values at start+duration.
		birth := 0
		if l.computed {
			birth = start[l.id] + dur[l.id]
		}
		// Death: the start cycle of the last consumer (the consumer latches
		// the operand when it fires). Values with no consumer (partition
		// outputs feeding OpOutput markers, handled by transfer buffers)
		// are held for one cycle.
		death := birth
		for _, su := range l.consumers {
			death = max(death, start[su])
		}
		addLife(birth, death, l.width)
	}
	regBits := 0
	for _, o := range occupancy {
		regBits = max(regBits, o)
	}

	// ---- multiplexers and nets ----
	// FU input-port steering: the distinct producer values arriving at each
	// operand position of an op type spread across its allocated instances;
	// each instance's port selects among ~distinct/n sources, so the type
	// needs (distinct - n) two-way muxes per bit at that position. This
	// distinct-source model tracks actual left-edge/first-fit bindings far
	// better than a naive sharers-per-FU count (package rtl's accuracy test
	// compares the two directly).
	mux := 0
	nets := 0
	width := e.width
	totalFUs := 0
	for i, cnt := range e.count {
		n := fus[i]
		if n <= 0 {
			n = cnt // unconstrained: one FU per op, no sharing
		}
		if n > cnt {
			n = cnt
		}
		totalFUs += n
		for _, d := range e.sources[i] {
			if d > n {
				mux += (d - n) * width
			}
		}
		nets += n * (len(e.sources[i]) + 1) // each FU: input nets + one output net
	}
	// Register-file steering: shared registers need an input mux per extra
	// writer. The extra-writer total is bounded both by the value surplus
	// (values - regs) and by the writer diversity a register can see (every
	// FU plus the external input path).
	regs := 0
	if width > 0 {
		regs = (regBits + width - 1) / width
	}
	if regs > 0 && e.values > regs {
		extra := e.values - regs
		if cap := regs * totalFUs; extra > cap {
			extra = cap
		}
		mux += extra * width
	}
	nets += e.edges + regs
	return Alloc{RegisterBits: regBits, Mux1Bit: mux, Nets: nets}
}

// inputPorts returns the operand count of an operation type.
func inputPorts(op dfg.Op) int {
	switch op {
	case dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpDiv, dfg.OpCmp:
		return 2
	default:
		return 1
	}
}

// datapathWidth returns the dominant value width of the graph (the maximum,
// which for the paper's designs is the uniform 16-bit width).
func datapathWidth(g *dfg.Graph) int {
	w := 0
	for _, n := range g.Nodes {
		if n.Width > w {
			w = n.Width
		}
	}
	return w
}
