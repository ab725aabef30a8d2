// Package ctrl implements the PLA-based controller prediction used by BAD
// and by CHOP's data-transfer modules (paper sections 2.4 and 2.5): from the
// number of inputs, outputs and product terms of a PLA, it predicts the
// controller's area and the delay it contributes to the clock cycle.
package ctrl

import (
	"fmt"
	"math/bits"

	"chop/internal/stats"
)

// Technology constants for the paper's 3-micron process. The crosspoint
// cell dominates; drivers and sense structures add per-row/column overhead.
const (
	// CellArea is the area of one PLA crosspoint in square mils.
	CellArea = 1.2
	// DriverArea is the per-row and per-column driver/sense overhead in
	// square mils.
	DriverArea = 20.0
	// delayBase is the intrinsic AND+OR plane delay in nanoseconds.
	delayBase = 2.0
	// delayPerTerm is the added delay per product term (word-line load).
	delayPerTerm = 0.02
	// delayPerIn is the added delay per input (bit-line load).
	delayPerIn = 0.03
	// delayPerOut is the added delay per output (OR-plane load).
	delayPerOut = 0.01
)

// Spec is the logical size of a PLA: I inputs, O outputs, P product terms.
type Spec struct {
	Inputs, Outputs, ProductTerms int
}

// Validate checks the spec for non-negative sizes and at least one output.
func (s Spec) Validate() error {
	if s.Inputs < 0 || s.Outputs <= 0 || s.ProductTerms <= 0 {
		return fmt.Errorf("ctrl: degenerate PLA spec %+v", s)
	}
	return nil
}

// Area predicts the PLA area in square mils: the AND plane holds 2*I columns
// (true and complemented input lines), the OR plane O columns, both P rows
// tall, plus driver overhead on every row and column.
func (s Spec) Area() stats.Triplet {
	cols := float64(2*s.Inputs + s.Outputs)
	rows := float64(s.ProductTerms)
	ml := cols*rows*CellArea + (cols+rows)*DriverArea
	// Folding and term sharing can shrink a PLA; unexpectedly poor sharing
	// can grow it. 8% down, 12% up.
	return stats.Spread(ml, 0.08, 0.12)
}

// Delay predicts the PLA read delay in nanoseconds, the component the
// controller adds to the system clock cycle.
func (s Spec) Delay() stats.Triplet {
	ml := delayBase +
		delayPerTerm*float64(s.ProductTerms) +
		delayPerIn*float64(s.Inputs) +
		delayPerOut*float64(s.Outputs)
	return stats.Spread(ml, 0.05, 0.10)
}

// StateBits returns ceil(log2(states)), minimum 1: the bit length of
// states-1.
func StateBits(states int) int {
	if states <= 1 {
		return 1
	}
	return bits.Len(uint(states - 1))
}

// ForFSM sizes the PLA of a Moore-style finite-state controller with the
// given number of states, external condition inputs and control outputs.
// Inputs are the state register bits plus conditions; outputs are the next
// state bits plus control signals; product terms approximate one term per
// state transition (sequential controllers transition once per state) plus
// one per condition branch.
func ForFSM(states, conditions, signals int) Spec {
	sb := StateBits(states)
	return Spec{
		Inputs:       sb + conditions,
		Outputs:      sb + signals,
		ProductTerms: states + conditions + 1,
	}
}
