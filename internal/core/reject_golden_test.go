package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/stats"
)

// TestRejectReasonGolden pins the Reason text of every rejection the
// integrator produces. Each fixture's every combination is integrated at its
// natural interval l (the slowest design's) and one datapath step above it.
// The golden keeps, per fixture and interval, the trial count per
// ReasonCode with the first text of each code, and a digest over every
// trial's code, chip and text in visit order. Regenerate with
// go test ./internal/core -run TestRejectReasonGolden -update.
//
// The fixtures reach every code except pins and schedule: a chip's pins
// never exceed its package once its transfers have a pin to use, and the
// integrator's task graphs are acyclic with every demand within capacity.
func TestRejectReasonGolden(t *testing.T) {
	var b strings.Builder
	for _, fx := range []struct {
		name    string
		problem func(*testing.T) (*Partitioning, Config, []bad.Result)
	}{
		{"fig7", fig7SliceProblem},
		{"stress", stressSearchProblem},
		{"pins8", pinsProblem(2, 8)},   // no-pins
		{"pins10", pinsProblem(1, 10)}, // data-clash, pin-bandwidth
		{"membound", memboundProblem},  // mem-bandwidth
		{"power", powerBoundProblem},   // power
	} {
		p, cfg, preds := fx.problem(t)
		it := NewDebugIntegrator(p, cfg)
		for _, step := range []int{0, cfg.Clocks.DatapathMult} {
			type codeStat struct {
				n     int
				first string
			}
			var stat [numReasons]codeStat
			h := sha256.New()
			trials := 0
			eachCombination(preds, cfg, func(choice []bad.Design, l int) {
				g := it.Eval(choice, l+step)
				trials++
				fmt.Fprintf(h, "%d %d %s\n", g.ReasonCode, g.ReasonChip, g.Reason)
				s := &stat[g.ReasonCode]
				if s.n++; s.n == 1 {
					s.first = g.Reason
				}
			})
			fmt.Fprintf(&b, "%s l+%d: %d trials, digest %x\n", fx.name, step, trials, h.Sum(nil)[:8])
			for r, s := range stat {
				if s.n > 0 {
					fmt.Fprintf(&b, "  %-13s %6d  %s\n", Reason(r), s.n, s.first)
				}
			}
		}
	}
	checkGolden(t, "reject_reasons.golden", b.String())
}

// eachCombination calls fn with every combination of preds' designs in
// odometer order, at the combination's natural system interval. choice is
// reused across calls.
func eachCombination(preds []bad.Result, cfg Config, fn func(choice []bad.Design, l int)) {
	lists := make([][]bad.Design, len(preds))
	for i, r := range preds {
		if len(r.Designs) == 0 {
			return
		}
		lists[i] = r.Designs
	}
	idx := make([]int, len(lists))
	choice := make([]bad.Design, len(lists))
	for {
		l := 0
		for i, j := range idx {
			choice[i] = lists[i][j]
			l = max(l, choice[i].IIMainCycles(cfg.Clocks))
		}
		fn(choice, l)
		if !advanceOdometer(idx, lists) {
			return
		}
	}
}

// pinsProblem is the example spec's AR filter (experiment 1) in n level
// partitions on chips whose packages have only the given pin count, every
// predicted design kept.
func pinsProblem(n, pins int) func(*testing.T) (*Partitioning, Config, []bad.Result) {
	return func(t *testing.T) (*Partitioning, Config, []bad.Result) {
		t.Helper()
		p := arPartitioning(t, n, 1)
		for i := range p.Chips.Chips {
			p.Chips.Chips[i].Pkg.Pins = pins
		}
		cfg := exp1Config()
		cfg.KeepAll = true
		return predictedProblem(t, p, cfg)
	}
}

// memboundProblem is TestIntegrateMemoryBandwidthChecked's partitioning
// under experiment 2.
func memboundProblem(t *testing.T) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	return predictedProblem(t, memboundPartitioning(t), exp2Config())
}

// powerBoundProblem is TestIntegratePowerConstraintExtension's fixture: the
// one-partition AR filter under a power bound half the first feasible
// design's low estimate.
func powerBoundProblem(t *testing.T) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	p := arPartitioning(t, 1, 1)
	cfg := exp1Config()
	base := firstFeasible(t, p, cfg)
	cfg.Constraints.Power = stats.Constraint{Bound: base.Power.Lo / 2, MinProb: 0.9}
	return predictedProblem(t, p, cfg)
}

func predictedProblem(t *testing.T, p *Partitioning, cfg Config) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg, preds
}
