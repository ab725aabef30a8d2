package obs

import (
	"maps"
	"sync"
	"time"
)

// RunStats is the live progress aggregator of one search run. Search
// workers publish into it when their recorders flush, after every shard
// and every few thousand trials: a shard's trial and feasible counts, its
// rejections per reason and its slowest trials. Readers (the serve /stats
// endpoints and the CLI's -progress and -stats-out sampler, whose output
// `chop top` draws) fold it into a point-in-time snapshot on demand. It is plain fields under one mutex,
// taken once per flush, per shard start and end, and per snapshot; nothing
// is written per trial, so a live fold trails a running worker by at most
// one flush.
//
// A nil *RunStats is valid and makes every method a no-op, following the
// package convention: instrumented engines call it unconditionally.
//
// Lifecycle: the run owner builds one with NewRunStats and hands it to the
// engine via core.Config.Stats; the engine calls StartSearch once the shard
// geometry is known, StartShard and EndShard around each shard it runs and
// Add at each flush, and readers call Snapshot at any time — before
// StartSearch it reports an empty shard table, after the run it keeps
// reporting the final state.
type RunStats struct {
	label string
	epoch time.Time // wall-clock reference for all *NS fields

	mu      sync.Mutex
	startNS int64 // search start, ns since epoch (0: not started)
	total   int64 // planned trials across all shards (0: unknown)
	shards  []shardState
	rejects map[string]int64 // the search's rejections per reason
	slow    SlowTrials       // the search's slowest trials

	// Checkpoint bookkeeping (fed by core's shard log): successful saves,
	// the shards the last one covered and its time.
	ckptSaves, ckptShards, ckptLastNS int64

	// cacheStats, when set, samples the predictor cache's cumulative
	// hit/miss counters at snapshot time; the baseline taken when it is
	// attached turns them into per-run numbers even on a shared
	// server-wide cache.
	cacheStats               func() (hits, misses int64)
	cacheHits0, cacheMisses0 int64

	// phases, when attached, contributes a per-phase cost breakdown to
	// snapshots (the profiling plane's PhaseAccounter).
	phases *PhaseAccounter
}

// shardState is one shard's progress.
type shardState struct {
	total, trials, feasible int64 // total 0: unknown
	startNS, endNS          int64 // first claim, completion; 0: not yet
	resumed                 bool  // restored from a checkpoint, not executed
}

// NewRunStats returns an empty aggregator. label names the run in rendered
// snapshots (the serve layer uses the run id, the CLI the subcommand).
func NewRunStats(label string) *RunStats {
	return &RunStats{label: label, epoch: time.Now()}
}

// Label returns the run label given to NewRunStats ("" on nil).
func (s *RunStats) Label() string {
	if s == nil {
		return ""
	}
	return s.label
}

// AttachPhases links a PhaseAccounter so snapshots carry its per-phase
// cost breakdown. The first non-nil attachment wins.
func (s *RunStats) AttachPhases(pa *PhaseAccounter) {
	if s == nil || pa == nil {
		return
	}
	s.mu.Lock()
	if s.phases == nil {
		s.phases = pa
	}
	s.mu.Unlock()
}

// nowNS returns nanoseconds since the stats epoch.
func (s *RunStats) nowNS() int64 { return time.Since(s.epoch).Nanoseconds() }

// StartSearch sizes the shard table and empties the search's rejections
// and slow trials. shards is the engine's shard count (1 for a serial
// search), totalTrials the planned trial count across all shards when the
// space is enumerable (0 when unknown, as for the iterative heuristic
// whose serialization walks have no a-priori length). A run that performs
// several searches (the experiments) reports the one in flight.
func (s *RunStats) StartSearch(shards int, totalTrials int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards = append(s.shards[:0], make([]shardState, max(shards, 0))...)
	s.total = totalTrials
	clear(s.rejects)
	s.slow = SlowTrials{}
	s.startNS = s.nowNS()
}

// SetCacheStatsFunc attaches a sampler for the predictor cache's cumulative
// hit/miss counters (bad.PredictCache.Stats, passed as a closure to keep
// obs free of a bad dependency). The baseline is taken now, so the reported
// hit rate is the run's own even on a shared server-wide cache; the first
// call wins — later calls (the search engine re-attaching what the run
// entry point already attached) are ignored to preserve that baseline.
func (s *RunStats) SetCacheStatsFunc(f func() (hits, misses int64)) {
	if s == nil || f == nil {
		return
	}
	s.mu.Lock()
	if s.cacheStats == nil {
		s.cacheStats = f
		s.cacheHits0, s.cacheMisses0 = f()
	}
	s.mu.Unlock()
}

// shard returns shard si's state, or nil when si is outside the table.
// s.mu must be held.
func (s *RunStats) shard(si int) *shardState {
	if si < 0 || si >= len(s.shards) {
		return nil
	}
	return &s.shards[si]
}

// StartShard marks shard si claimed with its planned trial count (0:
// unknown). An index outside the table is ignored, as by every shard
// method.
func (s *RunStats) StartShard(si int, totalTrials int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if sh := s.shard(si); sh != nil {
		sh.total = totalTrials
		sh.startNS = s.nowNS()
	}
	s.mu.Unlock()
}

// EndShard marks shard si complete.
func (s *RunStats) EndShard(si int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if sh := s.shard(si); sh != nil {
		sh.endNS = s.nowNS()
	}
	s.mu.Unlock()
}

// RestoreShard marks shard si restored from a checkpoint with its final
// counters, so resumed runs report the full picture without re-executing.
func (s *RunStats) RestoreShard(si int, trials, feasible int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if sh := s.shard(si); sh != nil {
		now := s.nowNS()
		*sh = shardState{total: trials, trials: trials, feasible: feasible,
			startNS: now, endNS: now, resumed: true}
	}
	s.mu.Unlock()
}

// ShardTally is one flush of a search worker's tally: the trials it
// examined in one shard since its previous flush. Reasons and Rejects are
// parallel, Rejects[i] counting the trials rejected for Reasons[i]; Slow,
// when non-nil, holds the flush's slowest trials.
type ShardTally struct {
	Shard            int
	Trials, Feasible int64
	Reasons          []string
	Rejects          []int64
	Slow             *SlowTrials
}

// Add folds one flush into the run. A shard index outside the table drops
// it whole.
func (s *RunStats) Add(t ShardTally) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shard(t.Shard)
	if sh == nil {
		return
	}
	sh.trials += t.Trials
	sh.feasible += t.Feasible
	for i, n := range t.Rejects {
		if n == 0 {
			continue
		}
		if s.rejects == nil {
			s.rejects = make(map[string]int64)
		}
		s.rejects[t.Reasons[i]] += n
	}
	if t.Slow != nil {
		s.slow.Add(t.Slow)
	}
}

// NoteCheckpointSave records one successful checkpoint write covering
// `shards` completed shards, for the checkpoint-lag column.
func (s *RunStats) NoteCheckpointSave(shards int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ckptSaves++
	s.ckptShards = int64(shards)
	s.ckptLastNS = s.nowNS()
	s.mu.Unlock()
}

// ShardSnapshot is the exported state of one shard.
type ShardSnapshot struct {
	Index int `json:"index"`
	// Trials/Total are examined vs. planned trials (Total 0: unknown).
	Trials int64 `json:"trials"`
	Total  int64 `json:"total,omitempty"`
	// Feasible counts the shard's feasible trials.
	Feasible int64 `json:"feasible"`
	// TrialsPerSec is the shard's own throughput over its active window.
	TrialsPerSec float64 `json:"trialsPerSec,omitempty"`
	// State is "pending", "running", "done" or "resumed".
	State string `json:"state"`
	// ETASec estimates seconds to shard completion (running shards with a
	// known total only).
	ETASec float64 `json:"etaSec,omitempty"`
}

// RunStatsSnapshot is a consistent point-in-time fold of a RunStats.
type RunStatsSnapshot struct {
	Label string `json:"label,omitempty"`
	// Started reports whether StartSearch has run.
	Started bool `json:"started"`
	// ElapsedSec is the time since StartSearch.
	ElapsedSec float64 `json:"elapsedSec,omitempty"`
	// Trials/Total aggregate all shards (Total 0: unknown space).
	Trials   int64 `json:"trials"`
	Total    int64 `json:"total,omitempty"`
	Feasible int64 `json:"feasible"`
	// Rejects counts the search's rejected trials by reason (the
	// core.reject.* names without their prefix); restored shards add none.
	Rejects map[string]int64 `json:"rejects,omitempty"`
	// TrialsPerSec is the aggregate throughput since StartSearch.
	TrialsPerSec float64 `json:"trialsPerSec,omitempty"`
	// ETASec estimates seconds to completion from the aggregate rate
	// (known totals only, 0 otherwise).
	ETASec float64 `json:"etaSec,omitempty"`
	// ShardsDone / Shards count completed vs. all shards.
	ShardsDone int `json:"shardsDone"`
	Shards     int `json:"shards"`
	// CacheHits/CacheMisses/CacheHitRate are the predictor cache's counters
	// for this run (since the sampler was attached), when a cache is
	// attached.
	CacheHits    int64   `json:"cacheHits,omitempty"`
	CacheMisses  int64   `json:"cacheMisses,omitempty"`
	CacheHitRate float64 `json:"cacheHitRate,omitempty"`
	// CheckpointSaves counts successful shard-log appends; CheckpointLag how
	// many completed shards the last save does not yet cover;
	// CheckpointAgeSec the time since the last save (0 when never saved).
	CheckpointSaves  int64   `json:"checkpointSaves,omitempty"`
	CheckpointLag    int64   `json:"checkpointLag,omitempty"`
	CheckpointAgeSec float64 `json:"checkpointAgeSec,omitempty"`
	// ShardTable is the per-shard breakdown, index order.
	ShardTable []ShardSnapshot `json:"shardTable,omitempty"`
	// SlowTrials are the search's slowest trials, slowest first.
	SlowTrials []Exemplar `json:"slowTrials,omitempty"`
	// Phases is the per-phase cost breakdown when a PhaseAccounter is
	// attached to the run.
	Phases *PhaseSnapshot `json:"phases,omitempty"`
}

// Done reports whether every shard has completed.
func (s RunStatsSnapshot) Done() bool {
	return s.Started && s.Shards > 0 && s.ShardsDone == s.Shards
}

// Snapshot folds the run's state into a consistent view. Safe to call at
// any time, including while workers flush.
func (s *RunStats) Snapshot() RunStatsSnapshot {
	if s == nil {
		return RunStatsSnapshot{}
	}
	s.mu.Lock()
	out := s.foldLocked()
	sampleCache := s.cacheStats
	hits0, misses0 := s.cacheHits0, s.cacheMisses0
	phases := s.phases
	s.mu.Unlock()

	out.Phases = phases.Snapshot()
	// Cache counters are sampled even before StartSearch: predictions — the
	// cache's busiest phase — precede the search.
	if sampleCache != nil {
		hits, misses := sampleCache()
		out.CacheHits = hits - hits0
		out.CacheMisses = misses - misses0
		if lookups := out.CacheHits + out.CacheMisses; lookups > 0 {
			out.CacheHitRate = float64(out.CacheHits) / float64(lookups)
		}
	}
	return out
}

// foldLocked builds the search part of a snapshot. s.mu must be held.
func (s *RunStats) foldLocked() RunStatsSnapshot {
	out := RunStatsSnapshot{Label: s.label, Total: s.total, Shards: len(s.shards)}
	if s.startNS == 0 && len(s.shards) == 0 {
		return out
	}
	out.Started = true
	now := s.nowNS()
	elapsed := float64(now-s.startNS) / 1e9
	if elapsed > 0 {
		out.ElapsedSec = elapsed
	}
	out.ShardTable = make([]ShardSnapshot, len(s.shards))
	for i, c := range s.shards {
		sh := ShardSnapshot{Index: i, Trials: c.trials, Total: c.total, Feasible: c.feasible}
		switch {
		case c.resumed:
			sh.State = "resumed"
		case c.endNS != 0:
			sh.State = "done"
		case c.startNS != 0:
			sh.State = "running"
		default:
			sh.State = "pending"
		}
		if c.startNS != 0 && !c.resumed {
			window := c.endNS
			if window == 0 {
				window = now
			}
			if secs := float64(window-c.startNS) / 1e9; secs > 0 && sh.Trials > 0 {
				sh.TrialsPerSec = float64(sh.Trials) / secs
				if sh.State == "running" && sh.Total > sh.Trials {
					sh.ETASec = float64(sh.Total-sh.Trials) / sh.TrialsPerSec
				}
			}
		}
		if sh.State == "done" || sh.State == "resumed" {
			out.ShardsDone++
		}
		out.Trials += sh.Trials
		out.Feasible += sh.Feasible
		out.ShardTable[i] = sh
	}
	if len(s.rejects) > 0 {
		out.Rejects = maps.Clone(s.rejects)
	}
	if elapsed > 0 && out.Trials > 0 {
		out.TrialsPerSec = float64(out.Trials) / elapsed
		if s.total > out.Trials {
			out.ETASec = float64(s.total-out.Trials) / out.TrialsPerSec
		}
	}
	if s.ckptSaves > 0 {
		out.CheckpointSaves = s.ckptSaves
		if lag := int64(out.ShardsDone) - s.ckptShards; lag > 0 {
			out.CheckpointLag = lag
		}
		out.CheckpointAgeSec = float64(now-s.ckptLastNS) / 1e9
	}
	out.SlowTrials = s.slow.Trials()
	return out
}
