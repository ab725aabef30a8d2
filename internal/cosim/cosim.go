// Package cosim functionally verifies a complete multi-chip implementation:
// it synthesizes every partition's chosen design to an RTL netlist (package
// rtl), simulates the netlists in partition-dependency order routing values
// across the chip boundaries exactly as the data-transfer tasks would, and
// compares the system's outputs against the behavioral golden model. This
// closes the loop the paper leaves as future work: "an immediate task is to
// synthesize ... some partitioned designs".
package cosim

import (
	"fmt"
	"strings"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/rtl"
	"chop/internal/sim"
)

// Verify synthesizes choice (one design per partition, e.g. a GlobalDesign's
// Choice) and streams the samples through the composed system: every
// partition runs its own netlist, pipelined or not, exactly as CHOP's
// selection rules allow, and each sample's outputs must match the
// whole-behavior golden model.
func Verify(p *core.Partitioning, cfg core.Config, choice []bad.Design,
	samples []map[string]int64, coef sim.Coeffs) error {

	if len(choice) != p.NumParts() {
		return fmt.Errorf("cosim: %d designs for %d partitions", len(choice), p.NumParts())
	}
	subs := p.Subgraphs()
	nets, err := bind(subs, cfg, choice)
	if err != nil {
		return err
	}
	return route(p, subs, nets, samples, coef)
}

// bind synthesizes every partition's design once.
func bind(subs []*dfg.Graph, cfg core.Config, choice []bad.Design) ([]*rtl.Netlist, error) {
	nets := make([]*rtl.Netlist, len(choice))
	for pi, d := range choice {
		cyc := rtl.OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
		nl, err := rtl.Bind(subs[pi], d, cfg.Lib, cyc)
		if err != nil {
			return nil, fmt.Errorf("cosim: partition %d: %w", pi+1, err)
		}
		nets[pi] = nl
	}
	return nets, nil
}

// route runs the samples through the partitions' netlists in dependency
// order, routing values across the chip boundaries per sample exactly as the
// data-transfer tasks would, and compares the system's outputs with the
// golden model.
func route(p *core.Partitioning, subs []*dfg.Graph, nets []*rtl.Netlist,
	samples []map[string]int64, coef sim.Coeffs) error {

	if coef == nil {
		coef = sim.DefaultCoeffs
	}
	// Coefficients must agree between the full graph and the partition
	// subgraphs even though node IDs differ: resolve by node name.
	byName := make(map[string]dfg.Node, len(p.Graph.Nodes))
	for _, n := range p.Graph.Nodes {
		byName[n.Name] = n
	}
	coefByName := func(n dfg.Node) int64 {
		if orig, ok := byName[n.Name]; ok {
			return coef(orig)
		}
		return coef(n)
	}
	order, err := partitionOrder(p)
	if err != nil {
		return err
	}

	golden := make([]map[string]int64, len(samples))
	// produced[k][name] is sample k's value of the named producer: its
	// primary inputs plus every value transferred between chips.
	produced := make([]map[string]int64, len(samples))
	for k, in := range samples {
		if golden[k], err = sim.Evaluate(p.Graph, in, coef); err != nil {
			return err
		}
		produced[k] = map[string]int64{}
		for _, id := range p.Graph.Inputs() {
			name := p.Graph.Nodes[id].Name
			produced[k][name] = in[name]
		}
	}

	for _, pi := range order {
		sub := subs[pi]
		streams := make([]map[string]int64, len(samples))
		for k := range samples {
			streams[k] = map[string]int64{}
			for _, id := range sub.Inputs() {
				name := sub.Nodes[id].Name
				v, ok := produced[k][name]
				if !ok {
					return fmt.Errorf("cosim: partition %d sample %d needs %q before it was produced (schedule order broken)",
						pi+1, k, name)
				}
				streams[k][name] = v
			}
		}
		outs, err := sim.Run(sub, nets[pi], streams, coefByName)
		if err != nil {
			return fmt.Errorf("cosim: partition %d: %w", pi+1, err)
		}
		for k := range samples {
			for name, v := range outs[k] {
				produced[k][strings.TrimPrefix(name, "out:")] = v
			}
		}
	}

	// System outputs: the whole graph's OpOutput markers read their
	// producer's transferred value.
	for _, id := range p.Graph.Outputs() {
		out := p.Graph.Nodes[id]
		src := p.Graph.Preds(id)
		if len(src) != 1 {
			return fmt.Errorf("cosim: output %q has %d producers", out.Name, len(src))
		}
		for k := range samples {
			got, ok := produced[k][p.Graph.Nodes[src[0]].Name]
			if !ok {
				return fmt.Errorf("cosim: sample %d output %q never produced", k, out.Name)
			}
			if got != golden[k][out.Name] {
				return fmt.Errorf("cosim: sample %d output %q = %d, golden model says %d",
					k, out.Name, got, golden[k][out.Name])
			}
		}
	}
	return nil
}

// partitionOrder topologically orders partitions by their data dependencies.
func partitionOrder(p *core.Partitioning) ([]int, error) {
	n := p.NumParts()
	dep := p.Graph.PartitionDAG(p.Assignment(), n)
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if dep[i][j] {
				indeg[j]++
			}
		}
	}
	var queue, order []int
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for v := 0; v < n; v++ {
			if dep[u][v] {
				indeg[v]--
				if indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("cosim: partition dependencies are cyclic")
	}
	return order, nil
}

// VerifyBest is a convenience: run CHOP, take the fastest feasible global
// design whose partitions are all non-pipelined, and verify it on the
// samples. It returns an error when no such design exists.
func VerifyBest(p *core.Partitioning, cfg core.Config, h core.Heuristic,
	samples []map[string]int64, coef sim.Coeffs) error {

	res, _, err := core.Run(p, cfg, h)
	if err != nil {
		return err
	}
	g := firstNonPipelined(res.Best)
	if g == nil {
		return fmt.Errorf("cosim: no feasible all-non-pipelined global design to verify")
	}
	return Verify(p, cfg, g.Choice, samples, coef)
}

// firstNonPipelined returns the first design of best whose partitions are
// all non-pipelined (the fastest, as a SearchResult orders Best), or nil.
func firstNonPipelined(best []core.GlobalDesign) *core.GlobalDesign {
	for i := range best {
		allNP := true
		for _, d := range best[i].Choice {
			if d.Style != bad.NonPipelined {
				allNP = false
				break
			}
		}
		if allNP {
			return &best[i]
		}
	}
	return nil
}

// Synthesis is a verified implementation of one global design: every
// partition's subgraph and its bound netlist.
type Synthesis struct {
	Design    *core.GlobalDesign
	Subgraphs []*dfg.Graph
	Netlists  []*rtl.Netlist
}

// Synthesize is the synth flow shared by `chop synth` and the service's
// synth runs: it takes the fastest all-non-pipelined design of best, binds
// every partition to an RTL netlist once, and co-simulates those netlists
// against the golden model on three seeded input vectors, one at a time.
func Synthesize(p *core.Partitioning, cfg core.Config, best []core.GlobalDesign) (*Synthesis, error) {
	chosen := firstNonPipelined(best)
	if chosen == nil {
		return nil, fmt.Errorf("synth: no feasible all-non-pipelined global design")
	}
	subs := p.Subgraphs()
	nets, err := bind(subs, cfg, chosen.Choice)
	if err != nil {
		return nil, fmt.Errorf("synth: verification failed: %w", err)
	}
	g := p.Graph
	for seed := int64(1); seed <= 3; seed++ {
		inputs := map[string]int64{}
		for i, id := range g.Inputs() {
			inputs[g.Nodes[id].Name] = (seed*31 + int64(i)*17) % 97
		}
		if err := route(p, subs, nets, []map[string]int64{inputs}, nil); err != nil {
			return nil, fmt.Errorf("synth: verification failed: %w", err)
		}
	}
	return &Synthesis{Design: chosen, Subgraphs: subs, Netlists: nets}, nil
}
