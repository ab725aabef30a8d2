package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// This file implements checkpoint/resume for the shard engine. The unit of
// durability is the shard: a shard's private SearchResult depends only on
// its own slice of the plan, so a snapshot of the completed shards plus the
// plan signature is enough to restart a search exactly where it stopped.
// Incomplete shards are simply re-run; completed ones are restored verbatim
// and merged in the usual shard order, which makes a resumed result
// byte-identical to an uninterrupted one (enforced by
// TestCheckpointResumeByteIdentical). The in-process checkpointer below and
// the distributed coordinator (internal/dist) persist the same payload,
// ShardSnapshot, through the same load and save helpers.

// ShardSnapshotKind tags the shard snapshot inside the versioned
// resilience envelope.
const ShardSnapshotKind = "chop/search-shards"

// ShardSnapshot is the checkpoint payload of a sharded search: the
// completed shards of one shard plan.
type ShardSnapshot struct {
	// Signature is the plan signature (ShardPlan.Signature): problem
	// content, search knobs and shard geometry.
	Signature string `json:"signature"`
	// Shards is the plan's shard count.
	Shards int `json:"shards"`
	// Done maps completed shard indices to their private results.
	Done map[int]*SearchResult `json:"done"`
}

// ErrSnapshotMismatch reports a shard snapshot written for a different
// plan: its signature or shard count differs.
var ErrSnapshotMismatch = errors.New("core: shard snapshot belongs to a different plan")

// LoadShardSnapshot reads the snapshot at path for the plan with this
// signature and shard count, and returns its done-set without nil or
// out-of-range entries. A missing, foreign-kind or undecodable file returns
// the resilience load error, a snapshot of another plan
// ErrSnapshotMismatch; callers treat both as "start fresh".
func LoadShardSnapshot(path, signature string, shards int) (map[int]*SearchResult, error) {
	var snap ShardSnapshot
	if err := resilience.LoadCheckpoint(path, ShardSnapshotKind, &snap); err != nil {
		return nil, err
	}
	if snap.Signature != signature || snap.Shards != shards {
		return nil, ErrSnapshotMismatch
	}
	for si, res := range snap.Done {
		if si < 0 || si >= shards || res == nil {
			delete(snap.Done, si)
		}
	}
	return snap.Done, nil
}

// SaveShardSnapshot writes snap atomically to path. Up to three attempts
// with a short backoff absorb transient I/O failures and injected
// "checkpoint.save" faults; the error of the last attempt is returned.
func SaveShardSnapshot(ctx context.Context, path string, inject *resilience.Injector, snap ShardSnapshot) error {
	return resilience.Retry(ctx, resilience.RetryPolicy{
		Attempts: 3, BaseDelay: 5 * time.Millisecond, Seed: 1,
	}, func() error {
		if err := inject.Fire("checkpoint.save"); err != nil {
			return err
		}
		return resilience.SaveCheckpoint(path, ShardSnapshotKind, snap)
	})
}

// planSignature fingerprints everything that determines a shard's content:
// the partitioning structure, the per-partition design lists, the
// feasibility knobs and the shard geometry. The worker count is not hashed
// directly, but the shard count is, and for the enumeration heuristic the
// shard count derives from the worker count (workers × shardsPerWorker) —
// so an enumeration checkpoint only resumes at the worker count that wrote
// it; a different count is a signature mismatch and starts fresh. Iterative
// shards are the candidate intervals, independent of workers, so iterative
// checkpoints resume at any worker count. The signature JSON-encodes every
// design list, so only checkpointed searches and PlanShards compute it.
func planSignature(p *Partitioning, cfg Config, pl *searchPlan) (string, error) {
	payload := struct {
		Heuristic   string
		Shards      int
		Total       int
		Graph       string
		Nodes       int
		Edges       int
		Parts       [][]int
		PartChip    []int
		Chips       any
		Mem         any
		Clocks      bad.Clocks
		Constraints Constraints
		MaxBusPins  int
		KeepAll     bool
		Lists       [][]bad.Design
	}{
		Heuristic: pl.h.String(), Shards: pl.shards, Total: pl.total,
		Graph: p.Graph.Name, Nodes: len(p.Graph.Nodes), Edges: len(p.Graph.Edges),
		Parts: p.Parts, PartChip: p.PartChip, Chips: p.Chips, Mem: p.Mem,
		Clocks: cfg.Clocks, Constraints: cfg.Constraints,
		MaxBusPins: cfg.MaxBusPins, KeepAll: cfg.KeepAll, Lists: pl.lists,
	}
	blob, err := json.Marshal(payload)
	if err != nil {
		return "", fmt.Errorf("core: checkpoint signature: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// checkpointer coordinates periodic snapshots of one search. Workers report
// completed shards through markDone; every cfg-selected number of
// completions the done-set is written atomically. All methods are nil-safe
// so the engine calls them unconditionally.
type checkpointer struct {
	mu      sync.Mutex
	cfg     Config
	sig     string
	shards  int
	every   int
	pending int  // completions since the last save
	saving  bool // a goroutine is writing a snapshot (outside the lock)
	done    map[int]*SearchResult
	sp      *obs.Span
}

// newCheckpointer builds the checkpointer for one search, or returns nil
// when cfg has no CheckpointPath — the plan signature is only computed
// past that check. With cfg.Resume set it restores a matching snapshot:
// the restored shards' results land in outs, marked restored. Load
// problems — missing file, foreign kind/version, signature mismatch — are
// not errors: the search starts fresh and the stale file is overwritten by
// the first save.
func newCheckpointer(p *Partitioning, cfg Config, pl *searchPlan, outs []shardOut, sp *obs.Span) (*checkpointer, error) {
	if cfg.CheckpointPath == "" {
		return nil, nil
	}
	sig, err := planSignature(p, cfg, pl)
	if err != nil {
		return nil, err
	}
	c := &checkpointer{
		cfg: cfg, sig: sig, shards: pl.shards, every: max(cfg.CheckpointEvery, 1),
		done: make(map[int]*SearchResult), sp: sp,
	}
	if !cfg.Resume {
		return c, nil
	}
	done, err := LoadShardSnapshot(cfg.CheckpointPath, sig, pl.shards)
	switch {
	case errors.Is(err, ErrSnapshotMismatch):
		cfg.Metrics.Inc("resilience.checkpoint_mismatch")
		if sp != nil {
			sp.Point("checkpoint", obs.F("resumed", false), obs.F("reason", "signature-mismatch"))
		}
		return c, nil
	case err != nil:
		cfg.Metrics.Inc("resilience.checkpoint_load_skipped")
		return c, nil
	}
	for si, res := range done {
		outs[si] = shardOut{res: *res, restored: true}
		c.done[si] = res
	}
	cfg.Metrics.Add("resilience.checkpoint_resumed_shards", int64(len(done)))
	if sp != nil {
		sp.Point("checkpoint", obs.F("resumed", true), obs.F("shards", len(done)))
	}
	return c, nil
}

// markDone records a completed shard and snapshots when the cadence is due.
// Called concurrently by workers; the bookkeeping happens under the mutex
// but the file write (which retries with backoff) does not, so a slow or
// failing checkpoint disk never serializes the pool at shard completion.
func (c *checkpointer) markDone(si int, res *SearchResult) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.done[si] = res
	c.pending++
	c.mu.Unlock()
	c.trySave(false)
}

// flush forces a snapshot of whatever has completed — called on the way out
// of an aborted search so a cancelled or failed run leaves its maximal
// resumable state behind.
func (c *checkpointer) flush() {
	if c == nil {
		return
	}
	c.mu.Lock()
	force := c.pending > 0 || len(c.done) > 0
	c.mu.Unlock()
	c.trySave(force)
}

// trySave writes snapshots while one is due (pending has reached the
// cadence, or force), electing the calling goroutine as the single writer:
// concurrent callers see the saving flag and return immediately, their
// completions folded into the writer's next loop iteration. The done-map is
// copied under the lock so the write itself — retried with backoff sleeps —
// runs unlocked and never stalls workers reporting new shards.
func (c *checkpointer) trySave(force bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.saving {
		return // the in-flight writer will pick the new pending work up
	}
	for force || c.pending >= c.every {
		force = false
		c.pending = 0
		snap := ShardSnapshot{Signature: c.sig, Shards: c.shards, Done: make(map[int]*SearchResult, len(c.done))}
		for si, res := range c.done {
			snap.Done[si] = res
		}
		c.saving = true
		c.mu.Unlock()
		c.save(snap)
		c.mu.Lock()
		c.saving = false
	}
}

// finish removes the checkpoint after a successful search: the snapshot is
// consumed, and a later unrelated run must not resume from it.
func (c *checkpointer) finish() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := os.Remove(c.cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
		c.cfg.Metrics.Inc("resilience.checkpoint_remove_failed")
	}
}

// save writes one snapshot. A save that still fails after
// SaveShardSnapshot's retries is recorded but does not kill the search —
// checkpoint durability is best-effort by design. Runs without the mutex;
// trySave guarantees a single writer at a time.
func (c *checkpointer) save(snap ShardSnapshot) {
	// Checkpoint I/O is booked on the accounter's global cell: the writer
	// is an elected worker goroutine, but the cost belongs to the
	// checkpoint phase, not to whichever shard drew the short straw.
	ph := c.cfg.Phases.Global()
	tok := ph.Begin()
	defer ph.End(tok, obs.PhaseCheckpoint)
	if err := SaveShardSnapshot(c.cfg.Ctx, c.cfg.CheckpointPath, c.cfg.Inject, snap); err != nil {
		c.cfg.Metrics.Inc("resilience.checkpoint_save_failed")
		if c.sp != nil {
			c.sp.Point("checkpoint", obs.F("save", "failed"), obs.F("error", err.Error()))
		}
		return
	}
	c.cfg.Metrics.Inc("resilience.checkpoint_saves")
	c.cfg.Stats.NoteCheckpointSave(len(snap.Done))
}
