package rtl

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/dfg"
)

func TestVerilogEmission(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	n, _, _ := bindFirst(t, g)
	v := n.Verilog(g)

	for _, want := range []string{
		"module ar_lattice_filter(",
		"input clk",
		"input signed [15:0] x1",
		"output reg signed [15:0] y1",
		"endmodule",
		"case (step)",
	} {
		if !strings.Contains(v, want) {
			t.Fatalf("Verilog missing %q:\n%s", want, v[:min(len(v), 800)])
		}
	}
	// every register appears as a declaration
	for _, r := range n.Regs {
		if !strings.Contains(v, "reg signed [15:0] "+r.Name+";") {
			t.Fatalf("register %s not declared", r.Name)
		}
	}
	// every FU has a combinational wire
	for _, fu := range n.FUs {
		if !strings.Contains(v, "wire signed [15:0] "+fu.Name+"_y") {
			t.Fatalf("FU %s not instantiated", fu.Name)
		}
	}
	// balanced module/endmodule and begin/end counts
	if strings.Count(v, "module ") != 1 || strings.Count(v, "endmodule") != 1 {
		t.Fatal("module structure broken")
	}
	if strings.Count(v, "begin") != strings.Count(v, " end")+strings.Count(v, "\n  end") {
		t.Logf("begin/end counting is heuristic; visual check:\n%s", v[:400])
	}
}

// TestVerilogOutputsLatchLoadSource: in every control step, an output
// port takes the same source as its producer's register load (the FU
// result, the input port or the memory expression), never the register,
// which in the step's non-blocking block still holds its previous value.
// Checked on every design bound for each partition of the AR filter at 1-3
// partitions; at 2x area the frontiers include pipelined designs.
func TestVerilogOutputsLatchLoadSource(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	outputs, pipelined := 0, 0
	for parts := 1; parts <= 3; parts++ {
		for pi, set := range dfg.LevelPartitions(g, parts) {
			sub, _ := g.PartitionGraph(fmt.Sprintf("%s/P%d", g.Name, pi+1), set)
			designs, cfg := exp2Designs(t, sub, 2)
			for _, d := range designs {
				n, err := Bind(sub, d, cfg.Lib, OpCyclesFor(d, true, cfg.Clocks.DatapathNS()))
				if err != nil {
					t.Fatal(err)
				}
				if d.Style == bad.Pipelined {
					pipelined++
				}
				steps := controlSteps(n.Verilog(sub))
				for _, step := range n.Control {
					acts := steps[step.Cycle]
					for r, id := range step.Load {
						for _, su := range sub.Succs(id) {
							if sub.Nodes[su].Op != dfg.OpOutput {
								continue
							}
							out := sanitize(sub.Nodes[su].Name)
							if acts[out] == "" || acts[out] != acts[r] {
								t.Fatalf("%s %s ii=%d step %d: %s <= %q, its producer's load %s <= %q",
									sub.Name, d.Style, d.II, step.Cycle, out, acts[out], r, acts[r])
							}
							outputs++
						}
					}
				}
			}
		}
	}
	if outputs == 0 || pipelined == 0 {
		t.Fatalf("checked %d output latches over %d pipelined designs, want both > 0", outputs, pipelined)
	}
}

// verilogComment matches the block comments a control step may carry.
var verilogComment = regexp.MustCompile(`/\*.*?\*/`)

// controlSteps parses the control table of emitted Verilog: each step's
// assignments, target to source.
func controlSteps(v string) map[int]map[string]string {
	steps := map[int]map[string]string{}
	for _, line := range strings.Split(v, "\n") {
		head, body, ok := strings.Cut(strings.TrimSpace(line), ": begin ")
		cycle, err := strconv.Atoi(head)
		if !ok || err != nil {
			continue
		}
		acts := map[string]string{}
		for _, a := range strings.Split(verilogComment.ReplaceAllString(strings.TrimSuffix(body, " end"), ""), ";") {
			if lhs, rhs, ok := strings.Cut(a, "<="); ok {
				acts[strings.TrimSpace(lhs)] = strings.TrimSpace(rhs)
			}
		}
		steps[cycle] = acts
	}
	return steps
}

func TestVerilogSanitize(t *testing.T) {
	cases := map[string]string{
		"ar-lattice-filter": "ar_lattice_filter",
		"x1":                "x1",
		"9lives":            "_lives",
		"out:y1":            "out_y1",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7}
	for states, want := range cases {
		if got := bitsFor(states); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", states, got, want)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
