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
// to one search with tracing off: the core.search_us timer (1) and the
// pprof label set of the run label Stats carries (5). The worker's
// recorder and its flushes add none, the registry entries and the RunStats
// shard table are made once and reused, and nothing is per trial.
// Measured: +6, so the budget is that plus 2%, rounded up.
const maxTelemetryAllocs = 7

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
	bare, with := searchAllocs(t, 5, p, cfg, preds, Enumeration), searchAllocs(t, 5, p, tel, preds, Enumeration)
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
	// maxFig7AllocsPerTrial: measured 0.051 (265 per 5,184 trials), the
	// Space appends, the per-search set-up and the owned copies of the few
	// of the 219 feasible designs that join a shard's frontier.
	maxFig7AllocsPerTrial = 0.0522
	// maxStressAllocsPerTrial: measured 0.155 (635 per 4,096 trials), the
	// per-search set-up and the owned copies of the designs that join a
	// shard's frontier. Each of the four shards ends with one of its 128
	// feasible designs, and most are dropped uncopied.
	maxStressAllocsPerTrial = 0.1582
	// maxCheckpointAllocs bounds what per-shard checkpointing adds to the
	// stress search. It is absolute, so cutting trial allocations does not
	// tighten it. Measured: +329, the plan signature and one encoding/json
	// record per shard of that shard's frontier, one design each.
	maxCheckpointAllocs = 336
	// maxIterativeAllocs bounds one iterative search of the stress problem
	// (63 trials, 6 feasible). Measured: 622, mostly the integrator's
	// per-search set-up.
	maxIterativeAllocs = 635
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
func stressProblem(t testing.TB, parts, keep int, keepAll bool) (*Partitioning, Config, []bad.Result) {
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

// searchAllocs returns the mean allocations of one search with heuristic h.
func searchAllocs(t *testing.T, runs int, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) float64 {
	t.Helper()
	return testing.AllocsPerRun(runs, func() {
		if _, err := Search(p, cfg, preds, h); err != nil {
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
			allocs := searchAllocs(t, tc.runs, p, cfg, preds, Enumeration)
			perTrial := allocs / float64(res.Trials)
			t.Logf("%.0f allocs per search, %.3f per trial (budget %.3f)", allocs, perTrial, tc.maxAllocsPerTrial)
			if perTrial > tc.maxAllocsPerTrial {
				t.Fatalf("%.3f allocs per trial, budget %.3f", perTrial, tc.maxAllocsPerTrial)
			}
		})
	}
}

// TestCheckpointAllocBudget bounds the durability tax: the shard log's one
// JSON record per completed shard may add at most maxCheckpointAllocs
// allocations to the stress search. Skipped under -race, as
// TestSearchAllocBudget is.
func TestCheckpointAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, cfg, preds := stressSearchProblem(t)
	cfg.Workers = 1
	ckpt := cfg
	ckpt.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	bare, with := searchAllocs(t, 1, p, cfg, preds, Enumeration), searchAllocs(t, 1, p, ckpt, preds, Enumeration)
	t.Logf("bare %.0f allocs per search, checkpointed %.0f (+%.0f, budget %d)", bare, with, with-bare, maxCheckpointAllocs)
	if with-bare > maxCheckpointAllocs {
		t.Fatalf("checkpointing adds %.0f allocs per search, budget %d", with-bare, maxCheckpointAllocs)
	}
}

// BenchmarkCheckpointTax times the durability tax: the stress search at
// one worker, bare and with a shard log, whose header and four shard
// records are fsynced one by one. One run of
//
//	go test -run '^$' -bench CheckpointTax -count 1 ./internal/core
//
// times a bare/checkpointed pair; repeated runs give alternating pairs
// (-count would run all bare rounds first), and the ratio of the pairs'
// medians is the tax. The fsyncs make it depend on the file system under
// the test's temporary directory.
func BenchmarkCheckpointTax(b *testing.B) {
	p, cfg, preds := stressProblem(b, 6, 4, false)
	cfg.Workers = 1
	ckpt := cfg
	ckpt.CheckpointPath = filepath.Join(b.TempDir(), "search.ckpt")
	for _, bc := range []struct {
		name string
		cfg  Config
	}{{"bare", cfg}, {"checkpointed", ckpt}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Search(p, bc.cfg, preds, Enumeration); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestIterativeAllocBudget is the same gate for the iterative heuristic on
// the stress search, per search rather than per trial: its 63 trials are
// too few to spread the search's fixed set-up.
func TestIterativeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, cfg, preds := stressSearchProblem(t)
	cfg.Workers = 1
	res, err := Search(p, cfg, preds, Iterative)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 63 || res.FeasibleTrials != 6 {
		t.Fatalf("%d trials, %d feasible; want 63 and 6", res.Trials, res.FeasibleTrials)
	}
	allocs := searchAllocs(t, 5, p, cfg, preds, Iterative)
	t.Logf("%.0f allocs per search (budget %d)", allocs, maxIterativeAllocs)
	if allocs > maxIterativeAllocs {
		t.Fatalf("%.0f allocs per search, budget %d", allocs, maxIterativeAllocs)
	}
}
