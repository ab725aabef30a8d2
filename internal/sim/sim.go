// Package sim provides three verification tools for the synthesis flow:
//
//   - Evaluate: a behavioral golden model that executes a data-flow graph
//     on concrete integer inputs;
//   - Run and Verify: a cycle-accurate interpreter for bound RTL netlists
//     (package rtl) driven by their control tables, streaming samples at the
//     netlist's initiation interval, and its check against the golden model,
//     used to prove that a synthesized partition implementation computes the
//     same function as the behavior it was derived from;
//   - StreamPeak: a multi-sample streaming simulation of a data-transfer
//     module's buffer occupancy, used to check the paper's buffer-sizing
//     formula B = D*(ceil(W/l) + X/l) against observed peaks.
package sim

import (
	"fmt"
	"sort"

	"chop/internal/dfg"
	"chop/internal/rtl"
)

// Coeffs supplies the constant operand of operations that take fewer data
// operands than their arity (e.g. a multiplier scaling by a filter
// coefficient) and the contents returned by memory reads.
type Coeffs func(n dfg.Node) int64

// DefaultCoeffs is dfg.Node.Coefficient as a Coeffs function: the declared
// constant when present, a deterministic node-dependent default otherwise.
func DefaultCoeffs(n dfg.Node) int64 { return n.Coefficient() }

// apply executes one operation on its operand values, padding missing
// operands with the node's coefficient.
func apply(n dfg.Node, args []int64, coef Coeffs) (int64, error) {
	arg := func(i int) int64 {
		if i < len(args) {
			return args[i]
		}
		return coef(n)
	}
	switch n.Op {
	case dfg.OpAdd:
		return arg(0) + arg(1), nil
	case dfg.OpSub:
		return arg(0) - arg(1), nil
	case dfg.OpMul:
		return arg(0) * arg(1), nil
	case dfg.OpDiv:
		d := arg(1)
		if d == 0 {
			return 0, fmt.Errorf("sim: division by zero at %q", n.Name)
		}
		return arg(0) / d, nil
	case dfg.OpCmp:
		if arg(0) < arg(1) {
			return 1, nil
		}
		return 0, nil
	case dfg.OpMemRd:
		return coef(n), nil
	case dfg.OpMemWr, dfg.OpOutput:
		return arg(0), nil
	default:
		return 0, fmt.Errorf("sim: cannot evaluate op %q", n.Op)
	}
}

// Evaluate executes the graph on the given primary-input values and returns
// the value of every primary output (and memory write) by name. Missing
// inputs default to zero.
func Evaluate(g *dfg.Graph, inputs map[string]int64, coef Coeffs) (map[string]int64, error) {
	if coef == nil {
		coef = DefaultCoeffs
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	val := make([]int64, len(g.Nodes))
	out := make(map[string]int64)
	for _, id := range order {
		n := g.Nodes[id]
		if n.Op == dfg.OpInput {
			val[id] = inputs[n.Name]
			continue
		}
		var args []int64
		for _, p := range g.Preds(id) {
			args = append(args, val[p])
		}
		v, err := apply(n, args, coef)
		if err != nil {
			return nil, err
		}
		val[id] = v
		if n.Op == dfg.OpOutput || n.Op == dfg.OpMemWr {
			out[n.Name] = v
		}
	}
	return out, nil
}

// Run streams samples through a bound netlist, sample k entering k*II
// cycles after sample 0, so a pipelined netlist overlaps samples in its
// datapath exactly as its modulo schedule prescribes, and a non-pipelined
// one (II == latency) runs them back to back. Each cycle applies register
// shifts first (every source read before any destination is written), then
// loads, then fires: a fire reads its operand registers and completes at its
// load, which mirrors edge-triggered registers. It returns, per sample, the
// value each primary output's producer was loaded with.
func Run(g *dfg.Graph, n *rtl.Netlist, samples []map[string]int64, coef Coeffs) ([]map[string]int64, error) {
	if coef == nil {
		coef = DefaultCoeffs
	}
	if err := n.Validate(g); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, nil
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	topoPos := make([]int, len(g.Nodes))
	for i, id := range order {
		topoPos[id] = i
	}
	// An output is recorded when its producer's value is loaded into a
	// register, whether that producer is an FU, an input or a memory read:
	// in the partitioned system the data-transfer module takes the value over
	// right then, and the register may be reused afterwards.
	outputsOf := make(map[int][]string)
	operands := make([][]string, len(g.Nodes))
	for _, nd := range g.Nodes {
		preds := g.Preds(nd.ID)
		if nd.Op == dfg.OpOutput {
			if len(preds) != 1 {
				return nil, fmt.Errorf("sim: output %q has %d producers", nd.Name, len(preds))
			}
			outputsOf[preds[0]] = append(outputsOf[preds[0]], nd.Name)
			continue
		}
		for pos, p := range preds {
			operands[nd.ID] = append(operands[nd.ID], n.OperandReg(nd.ID, pos, p))
		}
	}

	// Each control step's loads in topological order, so that same-cycle
	// combinational (memory) loads that chain through each other resolve.
	type load struct {
		reg string
		id  int
	}
	stepAt := make(map[int]int, len(n.Control)) // cycle -> control step
	loads := make([][]load, len(n.Control))
	last := 0
	for i, step := range n.Control {
		stepAt[step.Cycle] = i
		last = max(last, step.Cycle)
		for reg, id := range step.Load {
			loads[i] = append(loads[i], load{reg, id})
		}
		ls := loads[i]
		sort.Slice(ls, func(a, b int) bool {
			if topoPos[ls[a].id] != topoPos[ls[b].id] {
				return topoPos[ls[a].id] < topoPos[ls[b].id]
			}
			return ls[a].reg < ls[b].reg
		})
	}
	ii := max(n.II, 1)

	regs := make(map[string]int64)
	pending := make(map[[2]int]int64) // {node ID, sample} -> fired value awaiting its load
	outs := make([]map[string]int64, len(samples))
	for k := range outs {
		outs[k] = make(map[string]int64)
	}
	var args []int64
	operandValues := func(id int) []int64 {
		args = args[:0]
		for _, r := range operands[id] {
			args = append(args, regs[r])
		}
		return args
	}
	type active struct{ sample, step int }
	var now []active
	type move struct {
		dst string
		v   int64
	}
	var moves []move
	for t := 0; t <= last+(len(samples)-1)*ii; t++ {
		now, moves = now[:0], moves[:0]
		for k := range samples {
			if i, ok := stepAt[t-k*ii]; ok {
				now = append(now, active{k, i})
			}
		}
		for _, a := range now {
			for dst, src := range n.Control[a.step].Shift {
				moves = append(moves, move{dst, regs[src]})
			}
		}
		for _, m := range moves {
			regs[m.dst] = m.v
		}
		for _, a := range now {
			for _, l := range loads[a.step] {
				nd := g.Nodes[l.id]
				var v int64
				switch {
				case nd.Op == dfg.OpInput:
					v = samples[a.sample][nd.Name]
				case nd.Op.NeedsFU():
					key := [2]int{l.id, a.sample}
					fired, ok := pending[key]
					if !ok {
						return nil, fmt.Errorf("sim: sample %d: register %s loads %q before it fired",
							a.sample, l.reg, nd.Name)
					}
					delete(pending, key)
					v = fired
				default: // memory accesses resolve combinationally
					if v, err = apply(nd, operandValues(l.id), coef); err != nil {
						return nil, err
					}
				}
				regs[l.reg] = v
				for _, name := range outputsOf[l.id] {
					outs[a.sample][name] = v
				}
			}
		}
		for _, a := range now {
			for _, id := range n.Control[a.step].Fire {
				v, err := apply(g.Nodes[id], operandValues(id), coef)
				if err != nil {
					return nil, err
				}
				pending[[2]int{id, a.sample}] = v
			}
		}
	}
	return outs, nil
}

// Verify runs the samples through the netlist and checks every sample's
// outputs against the golden model.
func Verify(g *dfg.Graph, n *rtl.Netlist, samples []map[string]int64, coef Coeffs) error {
	want := make([]map[string]int64, len(samples))
	for k, in := range samples {
		w, err := Evaluate(g, in, coef)
		if err != nil {
			return err
		}
		want[k] = w
	}
	got, err := Run(g, n, samples, coef)
	if err != nil {
		return err
	}
	for k := range samples {
		for _, nd := range g.Nodes {
			if nd.Op != dfg.OpOutput {
				continue
			}
			v, ok := got[k][nd.Name]
			if !ok {
				return fmt.Errorf("sim: sample %d output %q never loaded", k, nd.Name)
			}
			if v != want[k][nd.Name] {
				return fmt.Errorf("sim: sample %d output %q = %d, golden model says %d",
					k, nd.Name, v, want[k][nd.Name])
			}
		}
	}
	return nil
}

// StreamPeak simulates a data-transfer module streaming `samples` samples at
// initiation interval l (main cycles): sample k's payload of d bits becomes
// resident at k*l, waits w cycles, then drains linearly over the x transfer
// cycles. It returns the peak resident bits observed at any integer time.
// The paper's formula B = D*(ceil(W/l) + X/l) is a most-likely estimate of
// this peak (the X/l term credits the stair-like drain), so callers should
// allow up to one extra sample of headroom when comparing.
func StreamPeak(d, w, x, l, samples int) float64 {
	if d <= 0 || samples <= 0 {
		return 0
	}
	if l < 1 {
		l = 1
	}
	horizon := samples*l + w + x + 1
	peak := 0.0
	for t := 0; t <= horizon; t++ {
		total := 0.0
		for k := 0; k < samples; k++ {
			ready := k * l
			xferStart := ready + w
			xferEnd := xferStart + x
			switch {
			case t < ready || t >= xferEnd:
				// not yet resident / fully handed off
			case t < xferStart:
				total += float64(d)
			default: // draining
				if x > 0 {
					frac := 1 - float64(t-xferStart)/float64(x)
					total += float64(d) * frac
				}
			}
		}
		if total > peak {
			peak = total
		}
	}
	return peak
}
