package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// TestStatsDoNotPerturbSearch is the telemetry plane's core guarantee:
// attaching Config.Stats never changes a SearchResult — serial or parallel,
// either heuristic — and the published fold agrees with the result it
// watched.
func TestStatsDoNotPerturbSearch(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		for _, workers := range []int{1, 4} {
			bare := cfg
			bare.Workers = workers
			want, err := Search(p, bare, preds, h)
			if err != nil {
				t.Fatal(err)
			}
			st := obs.NewRunStats("test")
			withStats := bare
			withStats.Stats = st
			got, err := Search(p, withStats, preds, h)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("h=%s w=%d", h, workers)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: stats-on result differs from stats-off", label)
			}
			snap := st.Snapshot()
			if snap.Trials != int64(got.Trials) || snap.Feasible != int64(got.FeasibleTrials) {
				t.Fatalf("%s: fold %d/%d trials, result %d/%d",
					label, snap.Trials, snap.Feasible, got.Trials, got.FeasibleTrials)
			}
			if !snap.Done() {
				t.Fatalf("%s: fold not done after search: %+v", label, snap)
			}
			var shardSum int64
			for _, sh := range snap.ShardTable {
				shardSum += sh.Trials
				if sh.State != "done" {
					t.Fatalf("%s: shard %d state %q after completion", label, sh.Index, sh.State)
				}
			}
			if shardSum != snap.Trials {
				t.Fatalf("%s: shard table sums to %d, aggregate %d", label, shardSum, snap.Trials)
			}
			if h == Enumeration && snap.Total != int64(got.Trials) {
				t.Fatalf("%s: planned total %d, trials %d", label, snap.Total, got.Trials)
			}
		}
	}
}

// TestStatsShardGeometry pins the published shard table to the engine's
// decomposition: workers*shardsPerWorker shards for an enumeration (capped
// at the space size), one worker included.
func TestStatsShardGeometry(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := obs.NewRunStats("geom")
	cfg.Workers = 3
	cfg.Stats = st
	res, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * shardsPerWorker
	if res.Trials < want {
		want = res.Trials
	}
	if snap := st.Snapshot(); snap.Shards != want {
		t.Fatalf("shards = %d, want %d (trials %d)", snap.Shards, want, res.Trials)
	}

	st2 := obs.NewRunStats("serial")
	cfg.Workers = 1
	cfg.CheckpointPath = ""
	cfg.Stats = st2
	if _, err := Search(p, cfg, preds, Enumeration); err != nil {
		t.Fatal(err)
	}
	if snap, want := st2.Snapshot(), min(shardsPerWorker, res.Trials); snap.Shards != want {
		t.Fatalf("one-worker shards = %d, want %d", snap.Shards, want)
	}
}

// TestStatsCheckpointAndResume: a checkpointed search reports its saves,
// and a resumed search marks restored shards without re-counting trials.
func TestStatsCheckpointAndResume(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")

	// Interrupted run: fail partway so completed shards stay on disk.
	failCfg := cfg
	failCfg.Workers = 2
	failCfg.CheckpointPath = ckpt
	failCfg.Inject = resilience.MustParse("core.trial=error:@20")
	st := obs.NewRunStats("interrupted")
	failCfg.Stats = st
	if _, err := Search(p, failCfg, preds, Enumeration); err == nil {
		t.Fatal("injected failure did not surface")
	}
	if snap := st.Snapshot(); snap.CheckpointSaves == 0 {
		t.Fatalf("no checkpoint saves recorded: %+v", snap)
	}

	// Resumed run: restored shards appear as "resumed" in the fold, and the
	// result still matches an uninterrupted serial search.
	resCfg := cfg
	resCfg.Workers = 2
	resCfg.CheckpointPath = ckpt
	resCfg.Resume = true
	st2 := obs.NewRunStats("resumed")
	resCfg.Stats = st2
	got, err := Search(p, resCfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	snap := st2.Snapshot()
	resumed := 0
	for _, sh := range snap.ShardTable {
		if sh.State == "resumed" {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatalf("no shards marked resumed: %+v", snap.ShardTable)
	}
	if snap.Trials != int64(got.Trials) {
		t.Fatalf("resumed fold %d trials, result %d", snap.Trials, got.Trials)
	}
	serial := cfg
	serial.Workers = 2
	want, err := Search(p, serial, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("resumed stats-on result differs from uninterrupted")
	}
}

// TestStatsCacheSamplerCoversPredictions: core.Run attaches the predictor
// cache sampler before predictions, so a cache-heavy Run reports its own
// hits from the prediction stage onward.
func TestStatsCacheSamplerCoversPredictions(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.PredictCache = bad.NewPredictCache(0)
	st := obs.NewRunStats("cache")
	cfg.Stats = st
	// Two identical runs: the second's predictions all hit the shared cache.
	if _, _, err := Run(p, cfg, Enumeration); err != nil {
		t.Fatal(err)
	}
	st2 := obs.NewRunStats("cache2")
	cfg.Stats = st2
	if _, _, err := Run(p, cfg, Enumeration); err != nil {
		t.Fatal(err)
	}
	first, second := st.Snapshot(), st2.Snapshot()
	if second.CacheHits == 0 || second.CacheMisses != 0 {
		t.Fatalf("second run should be all hits: %+v", second)
	}
	// The second run's baseline (taken at its own start) keeps the first
	// run's lookups out of its fold: were the baseline broken, the second
	// run would report at least the first run's lookups on top of its own.
	if second.CacheHits+second.CacheMisses > first.CacheHits+first.CacheMisses {
		t.Fatalf("second run re-reported the first run's lookups: first hits/misses %d/%d, second %d/%d",
			first.CacheHits, first.CacheMisses, second.CacheHits, second.CacheMisses)
	}
}
