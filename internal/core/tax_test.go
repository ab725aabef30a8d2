package core

import (
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
	allocs := func(cfg Config) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Search(p, cfg, preds, Enumeration); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare, with := allocs(cfg), allocs(tel)
	if res, _ := Search(p, cfg, preds, Enumeration); res.Trials == 0 {
		t.Fatal("fixture search examined no trials")
	}
	t.Logf("bare %.0f allocs/search, with Metrics+Stats+Phases %.0f (+%.0f)", bare, with, with-bare)
	if with-bare > maxTelemetryAllocs {
		t.Fatalf("telemetry adds %.0f allocs per search, budget %d", with-bare, maxTelemetryAllocs)
	}
}
