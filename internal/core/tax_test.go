package core

import (
	"path/filepath"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/stats"
)

// maxTelemetryAllocs bounds the allocations Metrics, Stats and Phases add
// to one search with tracing off: per-shard handles only, nothing per
// trial.
const maxTelemetryAllocs = 32

// TestTelemetryTax is the hardware-independent gate on the telemetry
// planes' hot-path cost: the EWF three-partition enumeration of the serve
// mix (720 trials, one worker, predictions precomputed) may allocate at
// most maxTelemetryAllocs more objects per search with Metrics, Stats and
// Phases attached than bare. The race detector's instrumentation
// allocates on its own, so the gate runs only without it.
func TestTelemetryTax(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	g := dfg.EllipticWaveFilter(16)
	p := &Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, 3),
		PartChip: []int{0, 1, 2},
		Chips:    chip.NewUniformSet(3, chip.MOSISPackages()[1], 4),
	}
	cfg := Config{
		Lib:    lib.ExtendedLibrary(),
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: Constraints{
			Perf:  stats.Constraint{Bound: 90000, MinProb: 1},
			Delay: stats.Constraint{Bound: 90000, MinProb: 0.8},
		},
		Workers: 1,
	}
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tel := cfg
	tel.Metrics = obs.NewMetrics()
	tel.Stats = obs.NewRunStats("tax")
	tel.Phases = obs.NewPhaseAccounter()
	bare, with := searchAllocs(t, 5, p, cfg, preds), searchAllocs(t, 5, p, tel, preds)
	if res, _ := Search(p, cfg, preds, Enumeration); res.Trials == 0 {
		t.Fatal("fixture search examined no trials")
	}
	t.Logf("bare %.0f allocs/search, with Metrics+Stats+Phases %.0f (+%.0f)", bare, with, with-bare)
	if with-bare > maxTelemetryAllocs {
		t.Fatalf("telemetry adds %.0f allocs per search, budget %d", with-bare, maxTelemetryAllocs)
	}
}

// Allocation budgets of the trial hot path: one search at Workers 1 over
// precomputed predictions. Each constant is the count measured with go1.24.0
// (given in its comment) plus 2%, BENCHMARK.json's allocs_per_op bound.
// A change that lowers a count lowers its constant to the new count plus 2%.
const (
	// maxFig7AllocsPerTrial: measured 381.9 (1,979,842 per 5,184 trials).
	maxFig7AllocsPerTrial = 389.5
	// maxStressAllocsPerTrial: measured 1,751.3 (7,173,384 per 4,096 trials).
	maxStressAllocsPerTrial = 1786.3
	// maxCheckpointAllocs bounds what per-shard checkpointing adds to the
	// stress search. It is absolute, so cutting trial allocations does not
	// tighten it. Measured: +46,521.
	maxCheckpointAllocs = 47451
)

// fig7SliceProblem is the unpruned experiment-1 search of Figure 7 at two
// partitions: the AR filter in two level partitions on the 84-pin package,
// every predicted design kept.
func fig7SliceProblem(t *testing.T) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.KeepAll = true
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg, preds
}

// stressProblem is the 6x20 stress graph (dfg.Stress) in `parts` level
// partitions on as many 84-pin chips, with the extended library and 300 µs
// bounds. Each partition keeps the first `keep` designs of its prediction:
// of every predicted design when keepAll is set, else of the fastest
// level-1-pruned ones. The returned Config prunes as usual.
func stressProblem(t *testing.T, parts, keep int, keepAll bool) (*Partitioning, Config, []bad.Result) {
	t.Helper()
	g := dfg.Stress(6, 20, 16)
	p := &Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, parts),
		PartChip: make([]int, parts),
		Chips:    chip.NewUniformSet(parts, chip.MOSISPackages()[1], 4),
	}
	for i := range p.PartChip {
		p.PartChip[i] = i
	}
	cfg := Config{
		Lib:    lib.ExtendedLibrary(),
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: Constraints{
			Perf:  stats.Constraint{Bound: 300000, MinProb: 1},
			Delay: stats.Constraint{Bound: 300000, MinProb: 0.8},
		},
		KeepAll: keepAll,
	}
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if len(preds[i].Designs) > keep {
			preds[i].Designs = preds[i].Designs[:keep]
		}
	}
	cfg.KeepAll = false
	return p, cfg, preds
}

// stressSearchProblem is the stress search the allocation gates measure:
// six partitions of four pruned designs each, a 4,096-combination
// enumeration with an eighth of its trials feasible, so the feasible path
// is measured too.
func stressSearchProblem(t *testing.T) (*Partitioning, Config, []bad.Result) {
	return stressProblem(t, 6, 4, false)
}

// searchAllocs returns the mean allocations of one enumeration search.
func searchAllocs(t *testing.T, runs int, p *Partitioning, cfg Config, preds []bad.Result) float64 {
	t.Helper()
	return testing.AllocsPerRun(runs, func() {
		if _, err := Search(p, cfg, preds, Enumeration); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSearchAllocBudget is the hardware-independent gate on the trial hot
// path: allocations per trial on the Figure 7 slice and on the stress
// search stay within their budgets, and both searches examine the same
// trials and find the same feasible designs as when the budgets were set.
// The race detector's instrumentation allocates on its own, so the gate
// runs only without it.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name              string
		problem           func(*testing.T) (*Partitioning, Config, []bad.Result)
		runs              int
		trials, feasible  int
		maxAllocsPerTrial float64
	}{
		{"fig7", fig7SliceProblem, 3, 5184, 219, maxFig7AllocsPerTrial},
		{"stress", stressSearchProblem, 2, 4096, 512, maxStressAllocsPerTrial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, cfg, preds := tc.problem(t)
			cfg.Workers = 1
			res, err := Search(p, cfg, preds, Enumeration)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trials != tc.trials || res.FeasibleTrials != tc.feasible {
				t.Fatalf("%d trials, %d feasible; want %d and %d",
					res.Trials, res.FeasibleTrials, tc.trials, tc.feasible)
			}
			allocs := searchAllocs(t, tc.runs, p, cfg, preds)
			perTrial := allocs / float64(res.Trials)
			t.Logf("%.0f allocs per search, %.1f per trial (budget %.1f)", allocs, perTrial, tc.maxAllocsPerTrial)
			if perTrial > tc.maxAllocsPerTrial {
				t.Fatalf("%.1f allocs per trial, budget %.1f", perTrial, tc.maxAllocsPerTrial)
			}
		})
	}
}

// TestCheckpointAllocBudget bounds the durability tax: one JSON snapshot
// per completed shard may add at most maxCheckpointAllocs allocations to
// the stress search. Skipped under -race, as TestSearchAllocBudget is.
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, cfg, preds := stressSearchProblem(t)
	cfg.Workers = 1
	ckpt := cfg
	ckpt.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	bare, with := searchAllocs(t, 1, p, cfg, preds), searchAllocs(t, 1, p, ckpt, preds)
	t.Logf("bare %.0f allocs per search, checkpointed %.0f (+%.0f, budget %d)", bare, with, with-bare, maxCheckpointAllocs)
	if with-bare > maxCheckpointAllocs {
		t.Fatalf("checkpointing adds %.0f allocs per search, budget %d", with-bare, maxCheckpointAllocs)
	}
}
