package core

import (
	"fmt"
	"sort"

	"chop/internal/bad"
)

// This file exports the engine's shard decomposition, so a search can be
// split across processes: a coordinator (internal/dist) plans the shard
// geometry, farms shard index sets out to chop serve workers (the "shard"
// job kind), and merges the per-shard results in shard order. Because
// shard content depends only on the problem, the search knobs and the
// geometry — all hashed into the plan signature — any fleet executing the
// same plan produces the same per-shard results, and MergeShardResults
// reduces them exactly like Search does: byte-identical to a local search.

// ShardPlan fixes the deterministic decomposition of one search.
type ShardPlan struct {
	Heuristic Heuristic `json:"heuristic"`
	// Shards is the number of shards the search splits into. Zero marks an
	// empty search space (some partition has no viable prediction for the
	// enumeration heuristic, or an empty design list for the iterative one):
	// there is nothing to execute and the merged result is the zero result.
	Shards int `json:"shards"`
	// Total is the enumeration combination count; for the iterative
	// heuristic it equals Shards (one candidate interval per shard).
	Total int `json:"total"`
	// Signature fingerprints the problem content, search knobs and shard
	// geometry (see planSignature). Executors must refuse a plan whose
	// locally recomputed signature differs: it would merge shards from a
	// different search.
	Signature string `json:"signature"`
}

// PlanShards computes the shard decomposition for a search over preds.
// For the enumeration heuristic the space splits into `shards` contiguous
// combination ranges (clamped to the combination count; <= 0 requests the
// in-process default of workers x 4). The iterative heuristic's shards are
// the candidate initiation intervals, so the request is ignored and the
// interval count wins — that also means iterative plans agree across any
// requested shard count, while enumeration plans only match at the shard
// count they were planned with.
func PlanShards(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) (ShardPlan, error) {
	pl, err := planSearch(p, cfg, preds, h, shards)
	if err != nil {
		return ShardPlan{}, err
	}
	sig, err := planSignature(p, cfg, &pl)
	if err != nil {
		return ShardPlan{}, err
	}
	return ShardPlan{Heuristic: h, Shards: pl.shards, Total: pl.total, Signature: sig}, nil
}

// SearchShards executes the named shard indices of the plan (p, cfg, preds,
// h, shards) and returns each shard's private result, keyed by shard index.
// A shard's result counts all its trials, but its Best holds only the
// shard's non-inferior frontier, unsorted (see record).
// The caller supplies the plan's shard count — PlanShards with the same
// inputs must have produced it — and any subset of [0, shards) to run.
// Execution is Search's engine without a shard log: a pool of
// cfg.searchWorkers() workers with the same panic isolation and
// cancellation; the first shard error (in shard order) aborts the
// remaining work.
func SearchShards(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic,
	shards int, indices []int) (map[int]*SearchResult, error) {

	pl, err := planSearch(p, cfg, preds, h, shards)
	if err != nil {
		return nil, err
	}
	if pl.shards != shards {
		return nil, fmt.Errorf("core: shard plan mismatch: requested %d shards, plan has %d", shards, pl.shards)
	}
	// Deterministic work order regardless of the caller's index order.
	order := append([]int(nil), indices...)
	sort.Ints(order)
	for i, si := range order {
		if si < 0 || si >= shards {
			return nil, fmt.Errorf("core: shard index %d out of range [0,%d)", si, shards)
		}
		if i > 0 && order[i-1] == si {
			return nil, fmt.Errorf("core: duplicate shard index %d", si)
		}
	}
	it, err := newIntegrator(p, cfg)
	if err != nil {
		return nil, err
	}
	// Size the live-stats table to the full plan so shard indices line up
	// with what other executors of the same plan report; only the shards
	// this call runs get populated.
	cfg.Stats.StartSearch(shards, pl.trialTotal())
	outs := make([]shardOut, shards)
	runShards(it, cfg, &pl, order, outs, nil, nil)
	done := make(map[int]*SearchResult, len(order))
	for _, si := range order {
		if err := outs[si].err; err != nil {
			return nil, err
		}
		done[si] = &outs[si].res
	}
	return done, nil
}

// MergeShardResults folds a complete done-set into the final result,
// merging in shard-index order (the serial visit order) and applying the
// same finishSearch reduction as Search. A shard's Best may hold its
// frontier, as SearchShards returns it, or every feasible design of the
// shard, as older workers and shard logs supply it: both merge to the same
// result. Every shard in [0, shards) must be present; a missing one is an
// error, because a partial merge would silently diverge from the serial
// result.
func MergeShardResults(h Heuristic, shards int, done map[int]*SearchResult) (SearchResult, error) {
	res := SearchResult{Heuristic: h}
	for si := 0; si < shards; si++ {
		s, ok := done[si]
		if !ok || s == nil {
			return SearchResult{Heuristic: h}, fmt.Errorf("core: merge missing shard %d of %d", si, shards)
		}
		mergeShard(&res, s)
	}
	if shards > 0 {
		finishSearch(&res)
	}
	return res, nil
}
