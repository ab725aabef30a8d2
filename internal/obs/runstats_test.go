package obs

import (
	"sync"
	"testing"
)

func TestNilRunStatsIsNoOp(t *testing.T) {
	var s *RunStats
	s.StartSearch(4, 100)
	s.SetCacheStatsFunc(func() (int64, int64) { return 1, 1 })
	s.NoteCheckpointSave(2)
	h := s.ShardStats(0)
	if h != nil {
		t.Fatalf("nil RunStats returned a shard handle")
	}
	h.Start(10)
	addTrials(h, 1, 1)
	h.Trial(5, 1, true, "")
	h.Done()
	h.Restored(1, 1)
	snap := s.Snapshot()
	if snap.Started || snap.Trials != 0 {
		t.Fatalf("nil RunStats snapshot not empty: %+v", snap)
	}
	if snap.Done() {
		t.Fatal("nil snapshot reports Done")
	}
}

func TestRunStatsLifecycle(t *testing.T) {
	s := NewRunStats("run-1")
	if snap := s.Snapshot(); snap.Started {
		t.Fatalf("started before StartSearch: %+v", snap)
	}
	s.StartSearch(3, 30)

	snap := s.Snapshot()
	if !snap.Started || snap.Shards != 3 || snap.Total != 30 || snap.Label != "run-1" {
		t.Fatalf("post-start snapshot wrong: %+v", snap)
	}
	for _, sh := range snap.ShardTable {
		if sh.State != "pending" {
			t.Fatalf("shard %d state = %q, want pending", sh.Index, sh.State)
		}
	}

	h0 := s.ShardStats(0)
	h0.Start(10)
	for i := 0; i < 10; i++ {
		h0.Trial(float64(i), i, i%2 == 0, "perf")
	}
	h0.Done()

	h1 := s.ShardStats(1)
	h1.Start(10)
	addTrials(h1, 4, 1)

	snap = s.Snapshot()
	if snap.Trials != 14 || snap.Feasible != 6 {
		t.Fatalf("aggregate = %d/%d feasible, want 14/6: %+v", snap.Trials, snap.Feasible, snap)
	}
	if snap.ShardsDone != 1 {
		t.Fatalf("shardsDone = %d, want 1", snap.ShardsDone)
	}
	states := []string{snap.ShardTable[0].State, snap.ShardTable[1].State, snap.ShardTable[2].State}
	if states[0] != "done" || states[1] != "running" || states[2] != "pending" {
		t.Fatalf("states = %v", states)
	}
	if snap.Done() {
		t.Fatal("Done with a running shard")
	}

	addTrials(h1, 6, 0)
	h1.Done()
	s.ShardStats(2).Start(10)
	s.ShardStats(2).Done()
	snap = s.Snapshot()
	if !snap.Done() {
		t.Fatalf("not Done after all shards completed: %+v", snap)
	}
	if len(snap.SlowTrials) != ExemplarTopK {
		t.Fatalf("|slowTrials| = %d, want %d", len(snap.SlowTrials), ExemplarTopK)
	}
	// Slowest first, and the slowest recorded trial survives.
	if snap.SlowTrials[0].DurUS != 9 {
		t.Fatalf("slowest exemplar = %+v, want durUS 9", snap.SlowTrials[0])
	}
}

func TestRunStatsShardOutOfRange(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(2, 0)
	if h := s.ShardStats(-1); h != nil {
		t.Fatal("negative index returned a handle")
	}
	if h := s.ShardStats(2); h != nil {
		t.Fatal("out-of-range index returned a handle")
	}
}

func TestRunStatsRestored(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(2, 20)
	s.ShardStats(0).Restored(10, 4)
	snap := s.Snapshot()
	sh := snap.ShardTable[0]
	if sh.State != "resumed" || sh.Trials != 10 || sh.Feasible != 4 {
		t.Fatalf("restored shard = %+v", sh)
	}
	if sh.TrialsPerSec != 0 {
		t.Fatalf("restored shard reports a rate: %+v", sh)
	}
	if snap.ShardsDone != 1 {
		t.Fatalf("shardsDone = %d, want 1 (resumed counts)", snap.ShardsDone)
	}
}

func TestRunStatsCacheBaselineFirstWins(t *testing.T) {
	s := NewRunStats("x")
	hits, misses := int64(100), int64(50)
	s.SetCacheStatsFunc(func() (int64, int64) { return hits, misses })
	// A later re-attach (the search engine re-attaching what the run entry
	// point already attached) must not move the baseline.
	s.SetCacheStatsFunc(func() (int64, int64) { return 0, 0 })
	hits, misses = 130, 60
	snap := s.Snapshot()
	if snap.CacheHits != 30 || snap.CacheMisses != 10 {
		t.Fatalf("cache deltas = %d/%d, want 30/10", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheHitRate != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", snap.CacheHitRate)
	}
}

func TestRunStatsCheckpointLag(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(4, 0)
	for si := 0; si < 3; si++ {
		h := s.ShardStats(si)
		h.Start(0)
		h.Done()
	}
	s.NoteCheckpointSave(2) // last save covered 2 of the 3 completed shards
	snap := s.Snapshot()
	if snap.CheckpointSaves != 1 || snap.CheckpointLag != 1 {
		t.Fatalf("checkpoint saves/lag = %d/%d, want 1/1", snap.CheckpointSaves, snap.CheckpointLag)
	}
}

// TestRunStatsStartSearchResets: a run performing several searches (the
// experiments) reports only the one in flight.
func TestRunStatsStartSearchResets(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(2, 10)
	addTrials(s.ShardStats(0), 5, 2)
	s.StartSearch(3, 9)
	snap := s.Snapshot()
	if snap.Trials != 0 || snap.Shards != 3 || snap.Total != 9 {
		t.Fatalf("reset snapshot = %+v", snap)
	}
}

// TestRunStatsZeroTrialShards: shards that complete without examining a
// single trial (empty sub-spaces) must report clean zeros — no rate, no
// ETA, no division artifacts — and still count toward completion.
func TestRunStatsZeroTrialShards(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(3, 0)
	for si := 0; si < 3; si++ {
		h := s.ShardStats(si)
		h.Start(0)
		h.Done()
	}
	snap := s.Snapshot()
	if !snap.Done() {
		t.Fatalf("zero-trial shards not done: %+v", snap)
	}
	if snap.Trials != 0 || snap.TrialsPerSec != 0 || snap.ETASec != 0 {
		t.Fatalf("zero-trial aggregate = %+v, want zeros", snap)
	}
	for _, sh := range snap.ShardTable {
		if sh.State != "done" || sh.TrialsPerSec != 0 || sh.ETASec != 0 {
			t.Fatalf("zero-trial shard %d = %+v", sh.Index, sh)
		}
	}
}

// TestRunStatsResumedShardETA: a shard restored from a checkpoint reports
// no rate or ETA of its own (its trials were not executed in this run's
// window), but its counters still feed the aggregate ETA math.
func TestRunStatsResumedShardETA(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(2, 20)
	s.ShardStats(0).Restored(10, 4)
	h1 := s.ShardStats(1)
	h1.Start(10)
	addTrials(h1, 5, 1)

	snap := s.Snapshot()
	resumed := snap.ShardTable[0]
	if resumed.State != "resumed" {
		t.Fatalf("state = %q, want resumed", resumed.State)
	}
	if resumed.TrialsPerSec != 0 || resumed.ETASec != 0 {
		t.Fatalf("resumed shard reports rate/ETA: %+v", resumed)
	}
	if snap.Trials != 15 {
		t.Fatalf("aggregate trials = %d, want 15 (resumed included)", snap.Trials)
	}
	if snap.ShardsDone != 1 {
		t.Fatalf("shardsDone = %d, want 1 (resumed counts as done)", snap.ShardsDone)
	}
	// 5 trials remain of 20; the aggregate window is live, so the estimate
	// must exist and be finite.
	if snap.ETASec <= 0 {
		t.Fatalf("aggregate ETA = %v, want > 0 with 5 trials remaining", snap.ETASec)
	}
	running := snap.ShardTable[1]
	if running.TrialsPerSec <= 0 || running.ETASec <= 0 {
		t.Fatalf("running shard lost its own estimate: %+v", running)
	}
}

// TestRunStatsConcurrentExemplars races many shards inserting slow-trial
// exemplars against snapshot readers (meaningful under -race) and checks
// the store keeps the global top-K, slowest first.
func TestRunStatsConcurrentExemplars(t *testing.T) {
	s := NewRunStats("race")
	const shards, perShard = 8, 400
	s.StartSearch(shards, shards*perShard)
	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			h := s.ShardStats(si)
			h.Start(perShard)
			for i := 0; i < perShard; i++ {
				// Unique durations per (shard, i) so the expected top-K is
				// exactly the highest values overall.
				h.Trial(float64(si*perShard+i), i, false, "pins")
			}
			h.Done()
		}(si)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	top := s.Snapshot().SlowTrials
	if len(top) != ExemplarTopK {
		t.Fatalf("|slowTrials| = %d, want %d", len(top), ExemplarTopK)
	}
	max := float64(shards*perShard - 1)
	for i, e := range top {
		if e.DurUS != max-float64(i) {
			t.Fatalf("slowTrials[%d] = %v µs, want %v", i, e.DurUS, max-float64(i))
		}
	}
}

// TestRunStatsConcurrentPublish hammers the publication and snapshot paths
// together (meaningful under -race).
func TestRunStatsConcurrentPublish(t *testing.T) {
	s := NewRunStats("race")
	const shards, perShard = 8, 500
	s.StartSearch(shards, shards*perShard)
	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			h := s.ShardStats(si)
			h.Start(perShard)
			for i := 0; i < perShard; i++ {
				h.Trial(float64(i%17), i, i%3 == 0, "delay")
			}
			h.Done()
		}(si)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	snap := s.Snapshot()
	if snap.Trials != shards*perShard {
		t.Fatalf("trials = %d, want %d", snap.Trials, shards*perShard)
	}
	if !snap.Done() {
		t.Fatalf("not done: %+v", snap)
	}
}

// addTrials books n zero-duration trials on h, the first f of them
// feasible. Zero-duration trials never rank as slow-trial exemplars.
func addTrials(h *ShardStats, n, f int) {
	for i := 0; i < n; i++ {
		h.Trial(0, 0, i < f, "")
	}
}
