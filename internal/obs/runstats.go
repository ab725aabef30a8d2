package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// RunStats is the live progress aggregator of one search run: every worker
// publishes its shard's trial counters through atomic adds on a private
// cell, and readers (the serve /stats endpoints, the Snapshotter, `chop
// top`) fold the cells into a consistent point-in-time snapshot on demand.
// The hot path — one atomic add per trial — takes no locks and shares no
// cache line with other shards' hot counters beyond Go's natural layout, so
// stats-on searches stay within noise of stats-off throughput (the
// allocation side is gated by core's TestTelemetryTax).
//
// A nil *RunStats is valid and makes every method a no-op, following the
// package convention: instrumented engines call it unconditionally.
//
// Lifecycle: the run owner builds one with NewRunStats and hands it to the
// engine via core.Config.Stats; the engine calls StartSearch once the shard
// geometry is known, ShardStats per claimed shard, and readers call
// Snapshot at any time — before StartSearch it reports an empty shard
// table, after the run it keeps reporting the final state.
type RunStats struct {
	mu     sync.Mutex
	shards []shardCell
	total  int64 // planned trials across all shards (0: unknown)
	label  string

	startNS atomic.Int64 // search start, ns since stats epoch (0: not started)
	epoch   time.Time    // wall-clock reference for all *NS fields

	// Checkpoint bookkeeping (fed by the core checkpointer).
	ckptSaves  atomic.Int64
	ckptShards atomic.Int64 // shards covered by the last successful save
	ckptLastNS atomic.Int64

	// cacheStats, when set, samples the predictor cache's cumulative
	// hit/miss counters at snapshot time; the baseline taken at StartSearch
	// turns them into per-run numbers even on a shared server-wide cache.
	cacheStats               func() (hits, misses int64)
	cacheHits0, cacheMisses0 int64

	// phases, when attached, contributes a per-phase cost breakdown to
	// snapshots (the profiling plane's PhaseAccounter).
	phases *PhaseAccounter

	exemplars ExemplarStore
}

// shardCell is one shard's atomically-updated progress counters. Workers
// own their claimed shard's cell exclusively for writes; readers fold all
// cells with atomic loads.
type shardCell struct {
	total    atomic.Int64 // planned trials in this shard (0: unknown)
	trials   atomic.Int64
	feasible atomic.Int64
	startNS  atomic.Int64 // first claim, ns since epoch (0: unclaimed)
	endNS    atomic.Int64 // completion, ns since epoch (0: in flight)
	resumed  atomic.Bool  // restored from a checkpoint, not executed
}

// NewRunStats returns an empty aggregator. label names the run in rendered
// snapshots (the serve layer uses the run id, the CLI the spec file).
func NewRunStats(label string) *RunStats {
	return &RunStats{label: label, epoch: time.Now()}
}

// ExemplarTopK selects how many slow-trial exemplars a run retains.
const ExemplarTopK = 8

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

// StartSearch sizes the shard table. shards is the engine's shard count
// (1 for a serial search), totalTrials the planned trial count across all
// shards when the space is enumerable (0 when unknown, as for the
// iterative heuristic whose serialization walks have no a-priori length).
// Calling StartSearch again resets the table — a run that performs several
// searches (the experiments) reports the one in flight.
func (s *RunStats) StartSearch(shards int, totalTrials int64) {
	if s == nil {
		return
	}
	if shards < 0 {
		shards = 0
	}
	s.mu.Lock()
	s.shards = make([]shardCell, shards)
	s.total = totalTrials
	s.mu.Unlock()
	s.startNS.Store(s.nowNS())
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

// ShardStats returns shard si's cell for hot-loop publication, or nil when
// stats are disabled or the index is out of range (both make the returned
// cell's methods no-ops).
func (s *RunStats) ShardStats(si int) *ShardStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if si < 0 || si >= len(s.shards) {
		return nil
	}
	return &ShardStats{s: s, cell: &s.shards[si], si: si}
}

// NoteCheckpointSave records one successful checkpoint write covering
// `shards` completed shards, for the checkpoint-lag column.
func (s *RunStats) NoteCheckpointSave(shards int) {
	if s == nil {
		return
	}
	s.ckptSaves.Add(1)
	s.ckptShards.Store(int64(shards))
	s.ckptLastNS.Store(s.nowNS())
}

// ShardStats is one shard's publication handle. A nil *ShardStats is valid
// and drops every update.
type ShardStats struct {
	s    *RunStats
	cell *shardCell
	si   int
}

// Start marks the shard claimed with its planned trial count (0 unknown).
func (h *ShardStats) Start(totalTrials int64) {
	if h == nil {
		return
	}
	h.cell.total.Store(totalTrials)
	h.cell.startNS.Store(h.s.nowNS())
}

// Trial books one finished trial: the shard's counters advance, and the
// trial is offered to the run's slow-trial exemplar store (a single atomic
// threshold load unless the trial ranks among the slowest seen).
func (h *ShardStats) Trial(durUS float64, ii int, feasible bool, reason string) {
	if h == nil {
		return
	}
	h.cell.trials.Add(1)
	if feasible {
		h.cell.feasible.Add(1)
	}
	h.s.exemplars.Observe(Exemplar{
		DurUS: durUS, Shard: h.si, II: ii, Feasible: feasible, Reason: reason,
	})
}

// Done marks the shard complete.
func (h *ShardStats) Done() {
	if h == nil {
		return
	}
	h.cell.endNS.Store(h.s.nowNS())
}

// Restored marks the shard restored from a checkpoint with its final
// counters, so resumed runs report the full picture without re-executing.
func (h *ShardStats) Restored(trials, feasible int64) {
	if h == nil {
		return
	}
	now := h.s.nowNS()
	h.cell.trials.Store(trials)
	h.cell.feasible.Store(feasible)
	h.cell.total.Store(trials)
	h.cell.startNS.Store(now)
	h.cell.endNS.Store(now)
	h.cell.resumed.Store(true)
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
	// TrialsPerSec is the aggregate throughput since StartSearch.
	TrialsPerSec float64 `json:"trialsPerSec,omitempty"`
	// ETASec estimates seconds to completion from the aggregate rate
	// (known totals only, 0 otherwise).
	ETASec float64 `json:"etaSec,omitempty"`
	// ShardsDone / Shards count completed vs. all shards.
	ShardsDone int `json:"shardsDone"`
	Shards     int `json:"shards"`
	// CacheHits/CacheMisses/CacheHitRate are the predictor cache's counters
	// for this run (since StartSearch), when a cache is attached.
	CacheHits    int64   `json:"cacheHits,omitempty"`
	CacheMisses  int64   `json:"cacheMisses,omitempty"`
	CacheHitRate float64 `json:"cacheHitRate,omitempty"`
	// CheckpointSaves counts successful snapshot writes; CheckpointLag how
	// many completed shards the last save does not yet cover;
	// CheckpointAgeSec the time since the last save (0 when never saved).
	CheckpointSaves  int64   `json:"checkpointSaves,omitempty"`
	CheckpointLag    int64   `json:"checkpointLag,omitempty"`
	CheckpointAgeSec float64 `json:"checkpointAgeSec,omitempty"`
	// ShardTable is the per-shard breakdown, index order.
	ShardTable []ShardSnapshot `json:"shardTable,omitempty"`
	// SlowTrials are the slowest trials observed, slowest first.
	SlowTrials []Exemplar `json:"slowTrials,omitempty"`
	// Phases is the per-phase cost breakdown when a PhaseAccounter is
	// attached to the run.
	Phases *PhaseSnapshot `json:"phases,omitempty"`
}

// Done reports whether every shard has completed.
func (s RunStatsSnapshot) Done() bool {
	return s.Started && s.Shards > 0 && s.ShardsDone == s.Shards
}

// Snapshot folds the shard cells into a consistent view. Safe to call at
// any time, including concurrently with hot-loop updates; counters are read
// with atomic loads, so a snapshot mid-trial is merely one trial stale.
func (s *RunStats) Snapshot() RunStatsSnapshot {
	if s == nil {
		return RunStatsSnapshot{}
	}
	s.mu.Lock()
	cells := s.shards
	total := s.total
	label := s.label
	sampleCache := s.cacheStats
	hits0, misses0 := s.cacheHits0, s.cacheMisses0
	phases := s.phases
	s.mu.Unlock()

	out := RunStatsSnapshot{Label: label, Total: total, Shards: len(cells)}
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
	startNS := s.startNS.Load()
	if startNS == 0 && len(cells) == 0 {
		return out
	}
	out.Started = true
	now := s.nowNS()
	elapsed := float64(now-startNS) / 1e9
	if elapsed > 0 {
		out.ElapsedSec = elapsed
	}
	out.ShardTable = make([]ShardSnapshot, len(cells))
	for i := range cells {
		c := &cells[i]
		sh := ShardSnapshot{
			Index:    i,
			Trials:   c.trials.Load(),
			Total:    c.total.Load(),
			Feasible: c.feasible.Load(),
		}
		st, en := c.startNS.Load(), c.endNS.Load()
		switch {
		case c.resumed.Load():
			sh.State = "resumed"
		case en != 0:
			sh.State = "done"
		case st != 0:
			sh.State = "running"
		default:
			sh.State = "pending"
		}
		if st != 0 {
			window := en
			if window == 0 {
				window = now
			}
			if secs := float64(window-st) / 1e9; secs > 0 && sh.Trials > 0 && sh.State != "resumed" {
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
	if elapsed > 0 && out.Trials > 0 {
		out.TrialsPerSec = float64(out.Trials) / elapsed
		if total > out.Trials {
			out.ETASec = float64(total-out.Trials) / out.TrialsPerSec
		}
	}
	if saves := s.ckptSaves.Load(); saves > 0 {
		out.CheckpointSaves = saves
		if lag := int64(out.ShardsDone) - s.ckptShards.Load(); lag > 0 {
			out.CheckpointLag = lag
		}
		out.CheckpointAgeSec = float64(now-s.ckptLastNS.Load()) / 1e9
	}
	out.SlowTrials = s.exemplars.Top()
	return out
}
