package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// This file implements checkpoint/resume for sharded searches. The unit of
// durability is the shard: a shard's private SearchResult depends only on
// its own slice of the plan, so the plan signature plus the completed
// shards is enough to restart a search exactly where it stopped.
// Incomplete shards are simply re-run; completed ones are restored verbatim
// and merged in the usual shard order, which makes a resumed result
// byte-identical to an uninterrupted one (enforced by
// TestCheckpointResumeByteIdentical). The in-process engine and the
// distributed coordinator (internal/dist) both persist through ShardLog.

// The shard log is one JSON line of header followed by one JSON line per
// completed shard:
//
//	{"version":1,"kind":"chop/shard-log","signature":"…","shards":N}
//	{"shard":si,"result":<SearchResult>}
//
// Each shard is encoded once, when it completes, and appended once. Its
// result lists the shard's frontier; a log whose records list every
// feasible design of their shard resumes to the same result.
const (
	shardLogVersion = 1
	shardLogKind    = "chop/shard-log"
)

// shardLogHeader is the log's first line.
type shardLogHeader struct {
	Version   int    `json:"version"`
	Kind      string `json:"kind"`
	Signature string `json:"signature"`
	Shards    int    `json:"shards"`
}

// shardLogRecord is one completed shard.
type shardLogRecord struct {
	Shard  int           `json:"shard"`
	Result *SearchResult `json:"result"`
}

// ShardLog is the append-only checkpoint of one sharded search. All methods
// are nil-safe, so callers use a nil log when checkpointing is off.
// Appends are best-effort: a failure is counted in
// resilience.checkpoint_save_failed and never stops the search.
type ShardLog struct {
	mu     sync.Mutex
	f      *os.File
	size   int64 // bytes up to the end of the last whole record
	shards int   // shard records in the file
	cfg    Config
	sp     *obs.Span
}

// OpenShardLog opens the shard log at cfg.CheckpointPath for the plan with
// this signature and shard count, or returns nil when the path is empty.
// With cfg.Resume set it restores the longest valid prefix of a matching
// log, returns its shards keyed by index and appends after them. A missing
// file (counted nowhere), a file that exists but cannot be used
// (resilience.checkpoint_load_skipped) and another plan's log
// (resilience.checkpoint_mismatch) are not errors: like a search without
// Resume, they start a fresh log. The log reads cfg's Inject,
// Metrics, Stats and Phases hooks and traces resume decisions on sp.
func OpenShardLog(cfg Config, signature string, shards int, sp *obs.Span) (*ShardLog, map[int]*SearchResult) {
	if cfg.CheckpointPath == "" {
		return nil, nil
	}
	l := &ShardLog{cfg: cfg, sp: sp}
	want := shardLogHeader{Version: shardLogVersion, Kind: shardLogKind, Signature: signature, Shards: shards}
	if cfg.Resume {
		if done := l.resume(want); done != nil {
			return l, done
		}
	}
	header, err := json.Marshal(want)
	if err == nil {
		header = append(header, '\n')
		err = resilience.Retry(func() error { return l.start(header) })
	}
	if err != nil {
		// Without a header no record can be appended: search on without.
		l.failed(err)
		return nil, nil
	}
	return l, nil
}

// resume restores a matching log's valid prefix, truncates the file to it
// and keeps it open for appending. It returns nil when the search must
// start fresh.
func (l *ShardLog) resume(want shardLogHeader) map[int]*SearchResult {
	m := l.cfg.Metrics
	f, err := os.OpenFile(l.cfg.CheckpointPath, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // a first run: nothing to resume, nothing wrong
	}
	if err != nil {
		m.Inc("resilience.checkpoint_load_skipped")
		return nil
	}
	data, err := io.ReadAll(f)
	line, rest, whole := bytes.Cut(data, []byte{'\n'})
	var have shardLogHeader
	if err != nil || !whole || json.Unmarshal(line, &have) != nil ||
		have.Version != want.Version || have.Kind != want.Kind {
		f.Close()
		m.Inc("resilience.checkpoint_load_skipped")
		return nil
	}
	if have != want {
		f.Close()
		m.Inc("resilience.checkpoint_mismatch")
		l.sp.Point("checkpoint", obs.F("resumed", false), obs.F("reason", "signature-mismatch"))
		return nil
	}
	// Records run up to the first line that does not decode: the torn
	// tail of an interrupted append.
	size := int64(len(line) + 1)
	done := make(map[int]*SearchResult)
	for {
		line, next, whole := bytes.Cut(rest, []byte{'\n'})
		var rec shardLogRecord
		if !whole || json.Unmarshal(line, &rec) != nil {
			break
		}
		if rec.Shard >= 0 && rec.Shard < want.Shards && rec.Result != nil && done[rec.Shard] == nil {
			done[rec.Shard] = rec.Result
		}
		size += int64(len(line) + 1)
		rest = next
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		l.failed(err)
		return nil
	}
	l.f, l.size, l.shards = f, size, len(done)
	m.Add("resilience.checkpoint_resumed_shards", int64(len(done)))
	l.sp.Point("checkpoint", obs.F("resumed", true), obs.F("shards", len(done)))
	return done
}

// start creates (or truncates) the file with header as its only line.
func (l *ShardLog) start(header []byte) error {
	f, err := os.OpenFile(l.cfg.CheckpointPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(header); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, int64(len(header))
	return nil
}

// Append records completed shard si. The record is encoded before the
// log's mutex is taken; the append and its fsync run under it, retried
// after truncating back to the last whole record. The retries ignore the
// search's cancellation, so a shard that completed before a cancel still
// lands on disk. The error is the last attempt's, already counted.
func (l *ShardLog) Append(si int, res *SearchResult) error {
	if l == nil {
		return nil
	}
	tok := l.cfg.Phases.Begin()
	defer l.cfg.Phases.End(tok, obs.PhaseCheckpoint)
	rec, err := json.Marshal(shardLogRecord{Shard: si, Result: res})
	if err != nil {
		l.failed(err)
		return err
	}
	rec = append(rec, '\n')
	l.mu.Lock()
	err = resilience.Retry(func() error { return l.write(rec) })
	shards := l.shards
	l.mu.Unlock()
	if err != nil {
		l.failed(err)
		return err
	}
	l.cfg.Metrics.Inc("resilience.checkpoint_saves")
	l.cfg.Stats.NoteCheckpointSave(shards)
	return nil
}

// write appends one record behind the last whole one; on failure the file
// is truncated back so the next attempt starts clean. Called with mu held.
func (l *ShardLog) write(rec []byte) error {
	if err := l.cfg.Inject.Fire("checkpoint.save"); err != nil {
		return err
	}
	_, err := l.f.WriteAt(rec, l.size)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		// Should the truncate fail too, the next write still lands at
		// l.size, and a resume stops at any torn bytes left behind it.
		l.f.Truncate(l.size)
		return err
	}
	l.size += int64(len(rec))
	l.shards++
	return nil
}

// failed books a write that did not succeed.
func (l *ShardLog) failed(err error) {
	l.cfg.Metrics.Inc("resilience.checkpoint_save_failed")
	l.sp.Point("checkpoint", obs.F("save", "failed"), obs.F("error", err.Error()))
}

// Close closes the log and leaves it on disk, for an aborted search to
// resume from. Every record was fsynced when appended, so a close error
// loses nothing.
func (l *ShardLog) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.f.Close()
}

// Remove closes and deletes the log after a successful search: its shards
// are consumed, and a later unrelated run must not resume from them.
func (l *ShardLog) Remove() {
	if l == nil {
		return
	}
	l.Close()
	if err := os.Remove(l.cfg.CheckpointPath); err != nil && !os.IsNotExist(err) {
		l.cfg.Metrics.Inc("resilience.checkpoint_remove_failed")
	}
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
