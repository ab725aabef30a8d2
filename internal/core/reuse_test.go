package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/stats"
)

// TestReusedScratchMatchesFresh is the shortcut-equivalence property of
// the timing-key reuse: a trial that reuses its bus's last key section
// must equal one integrated from scratch. It integrates each fixture's
// combinations twice, on one trial scratch reused for the whole pass and
// on a fresh scratch per trial, and requires the two designs to be equal
// in every field own copies or formats Reason from. Each fixture runs two
// passes. The odometer pass integrates every combination in the engine's
// order at its natural interval (the slowest design's), where consecutive
// trials repeat the interval and latencies most often. The shuffled pass
// visits every eighth combination in a seeded random order, each at its
// natural interval and then one datapath step above it, so back-to-back
// trials share the partitions' latencies under different intervals. The
// test fails unless some trials reuse a key section and some of those
// reuse a rejection.
//
// The fixtures are Figure 7's unpruned spaces at one to three partitions,
// the stress search, experiment 2's unpruned three-partition space on the
// 64-pin package, whose key section rejects some trials for pin bandwidth
// (its first 24 designs per partition, which hold those trials), and 60
// seeded dfg.RandomDAG partitionings. Under -short and the race detector
// every fixture keeps at most 12 designs per partition and the shuffled
// pass visits every 16th combination.
func TestReusedScratchMatchesFresh(t *testing.T) {
	type fixture struct {
		name  string
		p     *Partitioning
		cfg   Config
		preds []bad.Result
	}
	var fixtures []fixture
	for n := 1; n <= 3; n++ {
		p, cfg, preds := fig7Problem(t, n)
		fixtures = append(fixtures, fixture{fmt.Sprintf("fig7-%dp", n), p, cfg, preds})
	}
	p, cfg, preds := stressSearchProblem(t)
	fixtures = append(fixtures, fixture{"stress", p, cfg, preds})
	p, cfg, preds = exp2UnprunedProblem(t)
	fixtures = append(fixtures, fixture{"exp2-64pin", p, cfg, keepDesigns(preds, 24)})
	// A single-cycle datapath clock too short for a partition's operators
	// leaves it without designs; such seeds are skipped.
	for seed, n := int64(1), 0; n < 60; seed++ {
		p, cfg, preds := randomDAGProblem(t, seed)
		if !slices.ContainsFunc(preds, func(r bad.Result) bool { return len(r.Designs) == 0 }) {
			fixtures = append(fixtures, fixture{fmt.Sprintf("randomdag%d", seed), p, cfg, preds})
			n++
		}
	}
	stride, short := 8, testing.Short() || raceEnabled
	if short {
		stride = 16
	}
	reuses, reusedRejections := 0, 0
	for _, fx := range fixtures {
		cfg, preds := fx.cfg, fx.preds
		if short {
			preds = keepDesigns(preds, 12)
		}
		it, err := newIntegrator(fx.p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lists := make([][]bad.Design, len(preds))
		total := 1
		for i, r := range preds {
			lists[i] = r.Designs
			total *= len(r.Designs)
		}
		if total == 0 {
			t.Fatalf("%s: a partition has no predicted design", fx.name)
		}
		shuffled := rand.New(rand.NewSource(int64(total))).Perm(total)[:(total+stride-1)/stride]
		for _, pass := range []struct {
			name  string
			at    func(k int) int
			n     int
			steps []int
		}{
			{"odometer", func(k int) int { return k }, total, []int{0}},
			{"shuffled", func(k int) int { return shuffled[k] }, len(shuffled), []int{0, cfg.Clocks.DatapathMult}},
		} {
			sc := it.newScratch()
			choice := make([]*bad.Design, len(lists))
			for k := 0; k < pass.n; k++ {
				decodeCombination(pass.at(k), lists, sc.idx)
				l := 0
				for i, j := range sc.idx {
					choice[i] = &lists[i][j]
					l = max(l, choice[i].IIMainCycles(cfg.Clocks))
				}
				for _, step := range pass.steps {
					wide, narrow := sc.bus[0].reuses, sc.bus[1].reuses
					got, err := it.integrate(sc, choice, l+step, nil)
					if err != nil {
						t.Fatal(err)
					}
					if sc.bus[0].reuses > wide || sc.bus[1].reuses > narrow {
						reuses++
					}
					if sc.bus[0].reuses > wide && sc.bus[0].key.code != ReasonNone {
						reusedRejections++
					}
					want, err := it.integrate(it.newScratch(), choice, l+step, nil)
					if err != nil {
						t.Fatal(err)
					}
					if diff := trialDiff(got, want); diff != "" {
						t.Fatalf("%s, %s pass, combination %v at interval %d: %s",
							fx.name, pass.name, sc.idx, l+step, diff)
					}
				}
			}
		}
	}
	t.Logf("%d trials reused their key section, %d of them a rejection", reuses, reusedRejections)
	if reuses == 0 || reusedRejections == 0 {
		t.Fatal("the fixtures exercise no reused key section or no reused rejection")
	}
}

// trialDiff names the first field in which the trial designs got and
// want differ, or returns "". It compares every field own copies or
// formats Reason from, so the owned copies are equal exactly when it
// returns "". The choices are compared as pointers into the same
// prediction lists, which spares deep-comparing the designs' maps.
func trialDiff(got, want *GlobalDesign) string {
	switch {
	case !slices.Equal(got.picks, want.picks):
		return "Choice"
	case got.IIMain != want.IIMain || got.DelayMain != want.DelayMain:
		return fmt.Sprintf("II, delay: reused %d, %d, fresh %d, %d", got.IIMain, got.DelayMain, want.IIMain, want.DelayMain)
	case got.Clock != want.Clock || got.PerfNS != want.PerfNS || got.DelayNS != want.DelayNS || got.Power != want.Power:
		return "Clock, PerfNS, DelayNS or Power"
	case got.Feasible != want.Feasible || got.ReasonCode != want.ReasonCode || got.ReasonChip != want.ReasonChip ||
		got.Reason != want.Reason || !sameRejection(got.why, want.why):
		return fmt.Sprintf("verdict: reused %q, fresh %q", got.reasonText(), want.reasonText())
	case !sameSlice(got.ChipArea, want.ChipArea):
		return fmt.Sprintf("ChipArea: reused %v, fresh %v", got.ChipArea, want.ChipArea)
	case !sameSlice(got.ChipPins, want.ChipPins):
		return fmt.Sprintf("ChipPins: reused %v, fresh %v", got.ChipPins, want.ChipPins)
	case !sameSlice(got.Modules, want.Modules):
		return fmt.Sprintf("Modules: reused %+v, fresh %+v", got.Modules, want.Modules)
	case len(got.AreaViolations) != len(want.AreaViolations) || !slices.Equal(got.AreaViolations, want.AreaViolations):
		return fmt.Sprintf("AreaViolations: reused %v, fresh %v", got.AreaViolations, want.AreaViolations)
	case (got.Schedule == nil) != (want.Schedule == nil) ||
		!slices.EqualFunc(got.Schedule, want.Schedule, func(a, b TaskSpan) bool {
			return a.Name == b.Name && a.Start == b.Start && a.Dur == b.Dur && sameSlice(a.Chips, b.Chips)
		}):
		return fmt.Sprintf("Schedule: reused %v, fresh %v", got.Schedule, want.Schedule)
	}
	return ""
}

// sameSlice reports whether a and b hold equal elements and are both nil
// or both not, as their owned copies are.
func sameSlice[E comparable](a, b []E) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// sameRejection reports whether two rejections carry the same operands,
// comparing errors by their text.
func sameRejection(a, b rejection) bool {
	if (a.err == nil) != (b.err == nil) || a.err != nil && a.err.Error() != b.err.Error() {
		return false
	}
	a.err, b.err = nil, nil
	return a == b
}

// fig7Problem is Figure 7's unpruned space at n partitions: the AR filter
// in n level partitions on 84-pin chips under experiment 1, every
// predicted design kept.
func fig7Problem(t *testing.T, n int) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	cfg := exp1Config()
	cfg.KeepAll = true
	return predictedProblem(t, arPartitioning(t, n, 1), cfg)
}

// exp2UnprunedProblem is experiment 2's unpruned three-partition space on
// the 64-pin package.
func exp2UnprunedProblem(t *testing.T) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	cfg := exp2Config()
	cfg.KeepAll = true
	return predictedProblem(t, arPartitioning(t, 3, 0), cfg)
}

// randomDAGProblem is a seeded dfg.RandomDAG in one to three level
// partitions on as many chips, with a seeded package, style and datapath
// clock ratio. Every predicted design is kept, up to eight per partition.
func randomDAGProblem(t *testing.T, seed int64) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dfg.RandomDAG(seed, 1+rng.Intn(3), 3+rng.Intn(14), 16)
	parts := dfg.LevelPartitions(g, 1+rng.Intn(3))
	p := &Partitioning{
		Graph:    g,
		Parts:    parts,
		PartChip: make([]int, len(parts)),
		Chips:    chip.NewUniformSet(len(parts), chip.MOSISPackages()[rng.Intn(2)], 4),
	}
	for i := range p.PartChip {
		p.PartChip[i] = i
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	cfg := Config{
		Lib:    lib.ExtendedLibrary(),
		Style:  bad.Style{MultiCycle: rng.Intn(2) == 0},
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 1 + rng.Intn(10), TransferMult: 1},
		Constraints: Constraints{
			Perf:  stats.Constraint{Bound: 300000, MinProb: 1},
			Delay: stats.Constraint{Bound: 600000, MinProb: 0.8},
		},
		KeepAll: true,
	}
	_, cfg, preds := predictedProblem(t, p, cfg)
	return p, cfg, keepDesigns(preds, 8)
}

// keepDesigns returns preds with each partition's designs cut to the first
// n, leaving preds as they were.
func keepDesigns(preds []bad.Result, n int) []bad.Result {
	preds = slices.Clone(preds)
	for i := range preds {
		if len(preds[i].Designs) > n {
			preds[i].Designs = preds[i].Designs[:n]
		}
	}
	return preds
}
