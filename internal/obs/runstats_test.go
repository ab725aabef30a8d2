package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestNilRunStatsIsNoOp(t *testing.T) {
	var s *RunStats
	s.StartSearch(4, 100)
	s.SetCacheStatsFunc(func() (int64, int64) { return 1, 1 })
	s.NoteCheckpointSave(2)
	s.AttachPhases(NewPhaseAccounter())
	s.StartShard(0, 10)
	addTrials(s, 0, 1, 1)
	s.EndShard(0)
	s.RestoreShard(1, 1, 1)
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

	// Shard 0 flushes ten trials, every other one rejected on perf.
	s.StartShard(0, 10)
	var slow SlowTrials
	for i := 0; i < 10; i++ {
		slow.Observe(Exemplar{DurUS: float64(i), II: i, Feasible: i%2 == 0})
	}
	s.Add(ShardTally{Shard: 0, Trials: 10, Feasible: 5,
		Reasons: []string{"ok", "perf", "area"}, Rejects: []int64{0, 5, 0}, Slow: &slow})
	s.EndShard(0)

	s.StartShard(1, 10)
	addTrials(s, 1, 4, 1)

	snap = s.Snapshot()
	if snap.Trials != 14 || snap.Feasible != 6 {
		t.Fatalf("aggregate = %d/%d feasible, want 14/6: %+v", snap.Trials, snap.Feasible, snap)
	}
	if want := map[string]int64{"perf": 5}; !reflect.DeepEqual(snap.Rejects, want) {
		t.Fatalf("rejects = %v, want %v (zero counts create no entry)", snap.Rejects, want)
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

	addTrials(s, 1, 6, 0)
	s.EndShard(1)
	s.StartShard(2, 10)
	s.EndShard(2)
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

// TestRunStatsShardOutOfRange: every shard method ignores an index outside
// the table, and a flush for one is dropped whole.
func TestRunStatsShardOutOfRange(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(2, 0)
	var slow SlowTrials
	slow.Observe(Exemplar{DurUS: 1})
	for _, si := range []int{-1, 2} {
		s.StartShard(si, 5)
		s.Add(ShardTally{Shard: si, Trials: 5, Feasible: 1,
			Reasons: []string{"area"}, Rejects: []int64{4}, Slow: &slow})
		s.EndShard(si)
		s.RestoreShard(si, 5, 1)
	}
	snap := s.Snapshot()
	if snap.Trials != 0 || snap.ShardsDone != 0 || snap.Rejects != nil || snap.SlowTrials != nil {
		t.Fatalf("out-of-range shards reached the fold: %+v", snap)
	}
	for _, sh := range snap.ShardTable {
		if sh.State != "pending" {
			t.Fatalf("shard %d state = %q, want pending", sh.Index, sh.State)
		}
	}
}

func TestRunStatsRestored(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(2, 20)
	s.RestoreShard(0, 10, 4)
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
		s.StartShard(si, 0)
		s.EndShard(si)
	}
	s.NoteCheckpointSave(2) // last save covered 2 of the 3 completed shards
	snap := s.Snapshot()
	if snap.CheckpointSaves != 1 || snap.CheckpointLag != 1 {
		t.Fatalf("checkpoint saves/lag = %d/%d, want 1/1", snap.CheckpointSaves, snap.CheckpointLag)
	}
}

// TestRunStatsStartSearchResets: a run performing several searches (the
// experiments) reports only the one in flight: a second StartSearch
// empties the shard table, the rejections and the slow trials, so no slow
// trial names a shard of the earlier search.
func TestRunStatsStartSearchResets(t *testing.T) {
	s := NewRunStats("x")
	flush := func(shards, si int, dur float64, reason string) {
		s.StartSearch(shards, 10)
		s.StartShard(si, 5)
		var slow SlowTrials
		slow.Observe(Exemplar{DurUS: dur, Shard: si, Reason: reason})
		s.Add(ShardTally{Shard: si, Trials: 5, Feasible: 2,
			Reasons: []string{reason}, Rejects: []int64{3}, Slow: &slow})
	}
	flush(4, 3, 900, "area")
	if snap := s.Snapshot(); snap.Trials != 5 || snap.Rejects["area"] != 3 || len(snap.SlowTrials) != 1 {
		t.Fatalf("first search = %+v", snap)
	}

	s.StartSearch(3, 9)
	snap := s.Snapshot()
	if snap.Trials != 0 || snap.Shards != 3 || snap.Total != 9 || snap.Rejects != nil || snap.SlowTrials != nil {
		t.Fatalf("reset snapshot = %+v", snap)
	}

	flush(2, 1, 10, "pins")
	snap = s.Snapshot()
	want := []Exemplar{{DurUS: 10, Shard: 1, Reason: "pins"}}
	if !reflect.DeepEqual(snap.SlowTrials, want) || !reflect.DeepEqual(snap.Rejects, map[string]int64{"pins": 3}) {
		t.Fatalf("second search: slow trials %+v, rejects %v; want only its own", snap.SlowTrials, snap.Rejects)
	}
}

// TestRunStatsZeroTrialShards: shards that complete without examining a
// single trial (empty sub-spaces) must report clean zeros — no rate, no
// ETA, no division artifacts — and still count toward completion.
func TestRunStatsZeroTrialShards(t *testing.T) {
	s := NewRunStats("x")
	s.StartSearch(3, 0)
	for si := 0; si < 3; si++ {
		s.StartShard(si, 0)
		s.EndShard(si)
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
	s.RestoreShard(0, 10, 4)
	s.StartShard(1, 10)
	addTrials(s, 1, 5, 1)

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

// TestRunStatsConcurrentExemplars races many workers flushing their slow
// trials against snapshot readers (meaningful under -race) and checks the
// run keeps the global top-K, slowest first.
func TestRunStatsConcurrentExemplars(t *testing.T) {
	s := NewRunStats("race")
	const shards, perShard, perFlush = 8, 400, 64
	s.StartSearch(shards, shards*perShard)
	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s.StartShard(si, perShard)
			for lo := 0; lo < perShard; lo += perFlush {
				hi := min(lo+perFlush, perShard)
				var slow SlowTrials
				for i := lo; i < hi; i++ {
					// Unique durations per (shard, i) so the expected top-K
					// is exactly the highest values overall.
					slow.Observe(Exemplar{DurUS: float64(si*perShard + i), Shard: si, II: i, Reason: "pins"})
				}
				s.Add(ShardTally{Shard: si, Trials: int64(hi - lo), Slow: &slow})
			}
			s.EndShard(si)
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
		if e.DurUS != max-float64(i) || e.Shard != shards-1 {
			t.Fatalf("slowTrials[%d] = %+v, want %v µs in shard %d", i, e, max-float64(i), shards-1)
		}
	}
}

// TestRunStatsConcurrentPublish hammers the flush and snapshot paths
// together (meaningful under -race): every flushed trial and rejection is
// counted once.
func TestRunStatsConcurrentPublish(t *testing.T) {
	s := NewRunStats("race")
	const shards, flushes, perFlush = 8, 50, 10
	s.StartSearch(shards, shards*flushes*perFlush)
	reasons := []string{"delay", "area"}
	var wg sync.WaitGroup
	for si := 0; si < shards; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			s.StartShard(si, flushes*perFlush)
			for f := 0; f < flushes; f++ {
				s.Add(ShardTally{Shard: si, Trials: perFlush, Feasible: 3,
					Reasons: reasons, Rejects: []int64{5, 2}})
			}
			s.EndShard(si)
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
	if snap.Trials != shards*flushes*perFlush || snap.Feasible != shards*flushes*3 {
		t.Fatalf("trials/feasible = %d/%d, want %d/%d", snap.Trials, snap.Feasible,
			shards*flushes*perFlush, shards*flushes*3)
	}
	want := map[string]int64{"delay": shards * flushes * 5, "area": shards * flushes * 2}
	if !reflect.DeepEqual(snap.Rejects, want) {
		t.Fatalf("rejects = %v, want %v", snap.Rejects, want)
	}
	if !snap.Done() {
		t.Fatalf("not done: %+v", snap)
	}
}

// addTrials flushes n trials of shard si, the first f of them feasible,
// with no rejections or slow trials.
func addTrials(s *RunStats, si, n, f int) {
	s.Add(ShardTally{Shard: si, Trials: int64(n), Feasible: int64(f)})
}
