package dist

import (
	"context"
	"errors"
	"os"

	"chop/internal/core"
	"chop/internal/obs"
)

// The coordinator checkpoints like the in-process engine: the unit of
// durability is the shard, and the payload is core's ShardSnapshot (plan
// signature + shard count + done-set) in the versioned chop-ckpt/1
// envelope, loaded and saved through the same core helpers — so a
// restarted coordinator refuses to resume a snapshot from a different
// search. Only the save cadence and the dist.checkpoint.* metrics are the
// coordinator's own.

// restoreCheckpoint loads a matching snapshot into the done-set when
// Resume is set. Load problems are not errors — the search starts fresh
// and the stale file is overwritten by the first save.
func (c *Coordinator) restoreCheckpoint() {
	if c.o.CheckpointPath == "" || !c.o.Resume {
		return
	}
	done, err := core.LoadShardSnapshot(c.o.CheckpointPath, c.plan.Signature, c.plan.Shards)
	switch {
	case errors.Is(err, core.ErrSnapshotMismatch):
		c.o.Metrics.Inc("dist.checkpoint.mismatch")
		c.root.Point("checkpoint", obs.F("resumed", false), obs.F("reason", "signature-mismatch"))
		return
	case err != nil:
		c.o.Metrics.Inc("dist.checkpoint.load_skipped")
		return
	}
	for si, res := range done {
		c.done[si] = res
	}
	c.o.Metrics.Add("dist.shards.resumed", int64(len(done)))
	c.o.Log.Info("resumed from coordinator checkpoint",
		"path", c.o.CheckpointPath, "shards", len(done))
}

// maybeCheckpoint saves when the accepted-shard cadence is due.
func (c *Coordinator) maybeCheckpoint() {
	if c.o.CheckpointPath == "" || c.ckptDue == 0 {
		return
	}
	if c.ckptDue < max(c.o.CheckpointEvery, 1) {
		return
	}
	c.saveCheckpoint()
}

// flushCheckpoint persists whatever has completed on the way out of an
// interrupted search, leaving the maximal resumable state behind.
func (c *Coordinator) flushCheckpoint() {
	if c.o.CheckpointPath == "" || len(c.done) == 0 || c.plan.Shards == 0 {
		return
	}
	c.saveCheckpoint()
}

// saveCheckpoint writes one snapshot. A save that still fails after
// core.SaveShardSnapshot's retries is recorded but does not kill the
// search — durability is best-effort, exactly like the in-process
// checkpointer.
func (c *Coordinator) saveCheckpoint() {
	c.ckptDue = 0
	// Not bound to the search context: the flush on the way out of a
	// cancelled search must still write.
	err := core.SaveShardSnapshot(context.Background(), c.o.CheckpointPath, c.o.Inject, core.ShardSnapshot{
		Signature: c.plan.Signature,
		Shards:    c.plan.Shards,
		Done:      c.done,
	})
	if err != nil {
		c.o.Metrics.Inc("dist.checkpoint.save_failed")
		c.o.Log.Warn("coordinator checkpoint save failed", "error", err)
		return
	}
	c.o.Metrics.Inc("dist.checkpoint.saves")
}

// consumeCheckpoint removes the snapshot after a successful search, so a
// later unrelated run cannot resume from it.
func (c *Coordinator) consumeCheckpoint() {
	if c.o.CheckpointPath == "" {
		return
	}
	if err := os.Remove(c.o.CheckpointPath); err != nil && !os.IsNotExist(err) {
		c.o.Metrics.Inc("dist.checkpoint.remove_failed")
	}
}
