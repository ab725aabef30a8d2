package sim

// Failure-injection tests: the cycle-accurate verifier is only trustworthy
// if it actually catches broken synthesis results. Each test corrupts a
// correct netlist in a distinct way and asserts that verification fails.

import (
	"testing"

	"chop/internal/dfg"
	"chop/internal/rtl"
)

// vec is an input vector that excites every path of the AR filter.
var vec = []map[string]int64{{"x1": 3, "x2": -5, "x3": 7, "x4": 11}}

func correctNetlist(t *testing.T) (*dfg.Graph, *rtl.Netlist) {
	t.Helper()
	g, nets := bindAR(t)
	n := nets[0]
	if err := Verify(g, n, vec, nil); err != nil {
		t.Fatalf("baseline netlist must verify: %v", err)
	}
	return g, n
}

func TestInjectSwappedControlSteps(t *testing.T) {
	g, n := correctNetlist(t)
	// Swap the fire cycles of two different operations: the dataflow order
	// breaks and some operand is read too early or too late.
	var steps []int
	for i, s := range n.Control {
		if len(s.Fire) > 0 {
			steps = append(steps, i)
		}
	}
	if len(steps) < 2 {
		t.Skip("not enough fire steps to swap")
	}
	a, b := steps[0], steps[len(steps)-1]
	n.Control[a].Fire, n.Control[b].Fire = n.Control[b].Fire, n.Control[a].Fire
	if err := Verify(g, n, vec, nil); err == nil {
		t.Fatal("verification passed on a netlist with swapped control steps")
	}
}

func TestInjectDroppedLoad(t *testing.T) {
	g, n := correctNetlist(t)
	// Drop one register load: a stale (zero) value flows downstream.
	for i := range n.Control {
		for reg, id := range n.Control[i].Load {
			if g.Nodes[id].Op.NeedsFU() {
				delete(n.Control[i].Load, reg)
				if err := Verify(g, n, vec, nil); err == nil {
					t.Fatal("verification passed on a netlist with a dropped load")
				}
				return
			}
		}
	}
	t.Skip("no FU load found")
}

func TestInjectMisroutedLoad(t *testing.T) {
	g, n := correctNetlist(t)
	// Redirect a load to the wrong register: the consumer reads garbage.
	for i := range n.Control {
		for reg, id := range n.Control[i].Load {
			if !g.Nodes[id].Op.NeedsFU() {
				continue
			}
			wrong := ""
			for _, r := range n.Regs {
				if r.Name != reg {
					wrong = r.Name
					break
				}
			}
			if wrong == "" {
				t.Skip("single-register netlist")
			}
			delete(n.Control[i].Load, reg)
			n.Control[i].Load[wrong] = id
			if err := Verify(g, n, vec, nil); err == nil {
				t.Fatal("verification passed on a netlist with a misrouted load")
			}
			return
		}
	}
	t.Skip("no FU load found")
}

func TestInjectPrematureFire(t *testing.T) {
	g, n := correctNetlist(t)
	// Move a late-firing op to cycle 0: its operands have not been
	// produced yet, so it computes on stale registers.
	lastIdx, lastCycle := -1, -1
	for i, s := range n.Control {
		for range s.Fire {
			if s.Cycle > lastCycle {
				lastIdx, lastCycle = i, s.Cycle
			}
		}
	}
	if lastIdx <= 0 {
		t.Skip("no late fire to move")
	}
	var moveFU string
	var moveID int
	for fu, id := range n.Control[lastIdx].Fire {
		moveFU, moveID = fu, id
		break
	}
	delete(n.Control[lastIdx].Fire, moveFU)
	n.Control[0].Fire[moveFU+"_injected"] = moveID
	if err := Verify(g, n, vec, nil); err == nil {
		t.Fatal("verification passed on a netlist with a premature fire")
	}
}

func TestInjectDetectionIsNotVacuous(t *testing.T) {
	// Re-run the pristine netlist after all that mutation fuzzing to prove
	// the harness itself still accepts correct hardware.
	g, n := correctNetlist(t)
	if err := Verify(g, n, vec, nil); err != nil {
		t.Fatal(err)
	}
}
