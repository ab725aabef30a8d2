package core

import (
	"fmt"
	"path/filepath"
	"testing"

	"chop/internal/bad"
	"chop/internal/obs"
)

// TestPhaseAccountingPreservesDeterminism: attaching a PhaseAccounter is
// observability only — search results with phase accounting on must stay
// byte-identical between the serial and parallel engines (and to a run
// with accounting off).
func TestPhaseAccountingPreservesDeterminism(t *testing.T) {
	for _, h := range []Heuristic{Enumeration, Iterative} {
		cfg := exp1Config()
		p := arPartitioning(t, 2, 1)
		preds, err := PredictPartitions(p, cfg)
		if err != nil {
			t.Fatal(err)
		}

		bare, err := Search(p, cfg, preds, h)
		if err != nil {
			t.Fatal(err)
		}

		pcfg := cfg
		pcfg.Phases = obs.NewPhaseAccounter()
		serial, parallel := searchSerialAndParallel(t, p, pcfg, preds, h, 4)
		label := fmt.Sprintf("phases h=%s", h)
		requireIdentical(t, serial, parallel, label)
		requireIdentical(t, bare, serial, label+" (vs accounting off)")

		snap := pcfg.Phases.Snapshot()
		if snap.Trials == 0 {
			t.Fatalf("%s: accounter saw no trials", label)
		}
		if snap.TrialNS <= 0 {
			t.Fatalf("%s: no trial time measured", label)
		}
		inTrial := snap.PhaseNS("schedule") + snap.PhaseNS("xfer") + snap.PhaseNS("integrate")
		if inTrial != snap.TrialNS {
			t.Fatalf("%s: in-trial phases sum to %d ns of %d ns trial time",
				label, inTrial, snap.TrialNS)
		}
	}
}

// TestPhaseAccountingRecordsPredict: BAD's out-of-trial phases book on the
// run's accounter. With a prediction cache every Predict call brackets one
// cache lookup, and only the misses reach the predict phase: two
// PredictPartitions calls over two partitions look up four times and
// predict twice.
func TestPhaseAccountingRecordsPredict(t *testing.T) {
	cfg := exp1Config()
	cfg.Phases = obs.NewPhaseAccounter()
	cfg.Metrics = obs.NewMetrics()
	cfg.PredictCache = bad.NewPredictCache(8)
	p := arPartitioning(t, 2, 1)
	for i := 0; i < 2; i++ {
		if _, err := PredictPartitions(p, cfg); err != nil {
			t.Fatal(err)
		}
	}
	snap := cfg.Phases.Snapshot()
	if snap.PhaseNS("predict") <= 0 {
		t.Fatalf("no predict time booked: %+v", snap)
	}
	hits := cfg.Metrics.Counter("bad.predict_cache_hit")
	misses := cfg.Metrics.Counter("bad.predict_cache_miss")
	if hits == 0 || misses == 0 {
		t.Fatalf("%d cache hits and %d misses; the check needs both", hits, misses)
	}
	if got := phaseCount(snap, "cache-lookup"); got != hits+misses {
		t.Fatalf("cache-lookup count %d, want %d hits + %d misses", got, hits, misses)
	}
	if got := phaseCount(snap, "predict"); got != misses {
		t.Fatalf("predict count %d, want the %d cache misses", got, misses)
	}
}

// TestPhaseAccountingRecordsCheckpoint: every checkpoint save of a
// two-worker search brackets one checkpoint phase on the run's accounter.
func TestPhaseAccountingRecordsCheckpoint(t *testing.T) {
	p, cfg, preds := stressSearchProblem(t)
	cfg.Workers = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	cfg.Phases = obs.NewPhaseAccounter()
	cfg.Metrics = obs.NewMetrics()
	if _, err := Search(p, cfg, preds, Enumeration); err != nil {
		t.Fatal(err)
	}
	saves := cfg.Metrics.Counter("resilience.checkpoint_saves")
	if saves == 0 {
		t.Fatal("the checkpointed search saved nothing")
	}
	if got := phaseCount(cfg.Phases.Snapshot(), "checkpoint"); got != saves {
		t.Fatalf("checkpoint phase count %d, want %d saves", got, saves)
	}
}

// phaseCount returns the named phase's bracket count in snap, 0 when absent.
func phaseCount(snap *obs.PhaseSnapshot, name string) int64 {
	for _, p := range snap.Phases {
		if p.Phase == name {
			return p.Count
		}
	}
	return 0
}
