package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// This file is the one search engine behind Search and SearchShards. Every
// search runs plan → execute shards on a pool of 1..N workers → merge:
//
//   - planSearch fixes the shard geometry: contiguous index ranges of the
//     combination cross-product for enumeration, one candidate initiation
//     interval per shard for the iterative heuristic.
//   - runShards drains the shards from a shared atomic cursor. Every shard
//     books its trials into a private SearchResult (no locks on the hot
//     path).
//   - mergeShards concatenates the shard results in shard-index order,
//     which is exactly the serial visit order.
//
// After the finishSearch reduction the result is independent of the worker
// count: same Best ordering, same Trials and FeasibleTrials, and the same
// Space point sequence under KeepAll. The serial odometer and Figure-5
// walks survive only in oracle_test.go, as the independent reference the
// engine is tested against. See DESIGN.md, "Concurrency model".

// shardsPerWorker over-decomposes the enumeration space so a slow shard
// (expensive integrations cluster in parts of the space) cannot straggle
// the whole pool. Purely a load-balancing knob: shard count never affects
// the merged result.
const shardsPerWorker = 4

// searchPlan is the shard decomposition of one search.
type searchPlan struct {
	h     Heuristic
	lists [][]bad.Design
	// empty marks a space without a single combination: some partition
	// has no viable prediction. Nothing runs and the result is zero.
	empty  bool
	shards int
	// total is the enumeration combination count; for the iterative
	// heuristic it equals shards.
	total int
	// intervals holds the iterative heuristic's candidate interval per
	// shard, ascending.
	intervals []int
}

// planSearch computes the shard geometry of a search over preds, one per
// partition of p (the trial scratch holds one design per partition). The
// enumeration space splits into `shards` contiguous combination ranges,
// clamped to the combination count; shards <= 0 requests workers ×
// shardsPerWorker, at every worker count including 1. The iterative
// heuristic ignores the request: its shards are the candidate intervals.
func planSearch(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) (searchPlan, error) {
	if len(preds) != len(p.Parts) {
		return searchPlan{}, fmt.Errorf("core: %d predictions for %d partitions", len(preds), len(p.Parts))
	}
	pl := searchPlan{h: h, lists: make([][]bad.Design, len(preds))}
	for i, r := range preds {
		pl.lists[i] = r.Designs
		pl.empty = pl.empty || len(r.Designs) == 0
	}
	switch h {
	case Enumeration:
		total, err := enumSpaceSize(cfg, pl.lists)
		if err != nil {
			return searchPlan{}, err
		}
		if shards <= 0 {
			shards = cfg.searchWorkers() * shardsPerWorker
		}
		pl.shards, pl.total = min(shards, total), total
	case Iterative:
		if !pl.empty {
			pl.intervals = iterativeIntervals(cfg, pl.lists)
			pl.shards, pl.total = len(pl.intervals), len(pl.intervals)
		}
	default:
		return searchPlan{}, fmt.Errorf("core: unknown heuristic %d", h)
	}
	return pl, nil
}

// trialTotal is the a-priori trial count published to the live stats: the
// combination count for enumeration, unknown (0) for the iterative
// heuristic, whose serialization walks have no a-priori length.
func (pl *searchPlan) trialTotal() int64 {
	if pl.h == Enumeration {
		return int64(pl.total)
	}
	return 0
}

// announce emits the search-space size as a "space" trace point. The point
// is part of the trace format; live consumers read the same total from the
// run stats (trialTotal).
func (pl *searchPlan) announce(sp *obs.Span) {
	switch {
	case sp == nil:
	case pl.h == Enumeration:
		sp.Point("space", obs.F("combinations", pl.total))
	default:
		sp.Point("space", obs.F("intervals", pl.shards))
	}
}

// shardOut is one shard's private result buffer. Workers write only their
// own shard's entry; the merge reads all of them after the pool quiesces.
type shardOut struct {
	res SearchResult
	err error
	// restored marks a shard loaded from a checkpoint instead of run.
	restored bool
}

// errShardInterrupted marks a shard abandoned mid-range because another
// shard failed — not an error of its own, just "do not mark this one done".
var errShardInterrupted = errors.New("core: shard interrupted")

// guard runs fn in a panic domain and counts the panic in
// resilience.panic_recovered only when this guard recovered it, so a panic
// that crosses the shard guard and then the search guard counts once.
func guard(m *obs.Metrics, site string, fn func() error) error {
	return resilience.GuardNotify(site, fn, func() { m.Inc("resilience.panic_recovered") })
}

// runShards executes the shards listed in order (ascending shard indices)
// on a pool of cfg.searchWorkers() workers, capped at the shard count, that
// claim them from a shared atomic cursor; shard si's outcome lands in
// outs[si]. The calling goroutine is one of the workers, so a one-worker
// search runs entirely on it.
//
// Each shard runs under the panic guard: a panicking trial (a
// prediction-model bug, a poisoned design) fails only its own shard, and
// the recovered panic becomes that shard's error. The first failing shard
// raises the abort flag: idle workers stop claiming, running enumeration
// shards stop at their next trial, and completed shards keep their results.
func runShards(it *integrator, cfg Config, pl *searchPlan, order []int, outs []shardOut,
	ckpt *ShardLog, sp *obs.Span) {

	var cursor atomic.Int64 // next unclaimed position in order
	var aborted atomic.Bool
	work := func() {
		// Per-worker trial scratch and recorder, reused across the
		// worker's shards.
		sc := it.newScratch()
		rec := newRecorder(cfg, sp)
		for {
			oi := int(cursor.Add(1)) - 1
			if oi >= len(order) || aborted.Load() {
				return
			}
			si := order[oi]
			out := &outs[si]
			body := func() error {
				if pl.h == Iterative {
					rec.start(si, 0)
					return iterativeInterval(it, cfg, pl.lists, pl.intervals[si], &out.res, rec, sc)
				}
				lo, hi := shardRange(pl.total, pl.shards, si)
				rec.start(si, int64(hi-lo))
				decodeCombination(lo, pl.lists, sc.idx)
				for k := lo; k < hi; k++ {
					if err := cfg.canceled(); err != nil {
						return err
					}
					if aborted.Load() {
						return errShardInterrupted
					}
					if err := enumTrial(it, cfg, &out.res, pl.lists, sc, rec); err != nil {
						return err
					}
					advanceOdometer(sc.idx, pl.lists)
				}
				return nil
			}
			// The shard label refines the search-level run/phase labels, so
			// a CPU profile attributes samples to individual shards.
			var err error
			obs.DoLabeled(cfg.Ctx, func(context.Context) {
				err = guard(cfg.Metrics, "core.search", body)
			}, "shard", strconv.Itoa(si))
			// Publish the shard's tally whichever way it ended, so the
			// planes agree on failed and interrupted shards too.
			rec.flush()
			if err == errShardInterrupted {
				return
			}
			if err != nil {
				out.err = err
				aborted.Store(true)
				return
			}
			rec.done()
			_ = ckpt.Append(si, &out.res) // best-effort: Append counts a failure, the search goes on
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(cfg.searchWorkers(), len(order)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// runSearch is Search's engine: plan, restore a checkpoint, run the
// unrestored shards, merge, and reduce to the non-inferior set. The context
// is checked once up front: a search whose plan is empty runs no trial, so
// a deadline that expired during prediction would otherwise go unreported.
func runSearch(it *integrator, cfg Config, preds []bad.Result, h Heuristic, sp *obs.Span) (SearchResult, error) {
	if err := cfg.canceled(); err != nil {
		return SearchResult{Heuristic: h}, err
	}
	pl, err := planSearch(it.p, cfg, preds, h, 0)
	if err != nil || pl.empty {
		return SearchResult{Heuristic: h}, err
	}
	pl.announce(sp)
	cfg.Stats.StartSearch(pl.shards, pl.trialTotal())
	outs := make([]shardOut, pl.shards)
	var ckpt *ShardLog
	if cfg.CheckpointPath != "" {
		sig, err := planSignature(it.p, cfg, &pl)
		if err != nil {
			return SearchResult{Heuristic: h}, err
		}
		var done map[int]*SearchResult
		ckpt, done = OpenShardLog(cfg, sig, pl.shards, sp)
		for si, res := range done {
			outs[si] = shardOut{res: *res, restored: true}
		}
	}
	order := make([]int, 0, pl.shards)
	for si := range outs {
		if outs[si].restored {
			// Publish restored shards so a resumed run reports the full
			// picture without re-executing them.
			cfg.Stats.RestoreShard(si, int64(outs[si].res.Trials), int64(outs[si].res.FeasibleTrials))
			continue
		}
		order = append(order, si)
	}
	runShards(it, cfg, &pl, order, outs, ckpt, sp)
	res, err := mergeShards(h, outs)
	if err != nil {
		ckpt.Close() // every completed shard is already on disk
		return res, err
	}
	finishSearch(&res)
	ckpt.Remove()
	return res, nil
}

// mergeShards folds every shard into a fresh result in shard order and
// returns the first error in shard order (deterministic even when several
// shards failed concurrently). Completed shards before and after a failed
// one still contribute their partial counts.
func mergeShards(h Heuristic, outs []shardOut) (SearchResult, error) {
	var best, space int
	for i := range outs {
		best += len(outs[i].res.Best)
		space += len(outs[i].res.Space)
	}
	res := SearchResult{Heuristic: h}
	if best > 0 {
		res.Best = make([]GlobalDesign, 0, best)
	}
	if space > 0 {
		res.Space = make([]SpacePoint, 0, space)
	}
	var first error
	for i := range outs {
		mergeShard(&res, &outs[i].res)
		if first == nil {
			first = outs[i].err
		}
	}
	return res, first
}

// mergeShard appends one shard's counters, designs and space points onto
// the aggregate, preserving shard order.
func mergeShard(dst *SearchResult, s *SearchResult) {
	dst.Trials += s.Trials
	dst.FeasibleTrials += s.FeasibleTrials
	dst.Best = append(dst.Best, s.Best...)
	dst.Space = append(dst.Space, s.Space...)
}

// shardRange returns the half-open combination range [lo, hi) of shard si
// out of shards over a space of total combinations, balanced to within one.
func shardRange(total, shards, si int) (lo, hi int) {
	size, rem := total/shards, total%shards
	lo = si*size + min(si, rem)
	hi = lo + size
	if si < rem {
		hi++
	}
	return lo, hi
}

// decodeCombination writes the mixed-radix digits of linear combination
// index k into idx, most-significant digit first — the odometer order
// (last digit fastest).
func decodeCombination(k int, lists [][]bad.Design, idx []int) {
	for i := len(lists) - 1; i >= 0; i-- {
		idx[i] = k % len(lists[i])
		k /= len(lists[i])
	}
}
