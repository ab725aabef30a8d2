package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"chop/internal/core"
	"chop/internal/spec"
)

// This file implements the "shard" run kind: the worker half of
// distributed search (internal/dist). A coordinator plans the shard
// decomposition of a spec locally, then submits shard-execution requests
// naming the shard indices one lease covers. The worker re-derives the
// plan from the same spec and refuses to execute when the signatures
// disagree — a worker on a stale binary or a mutated spec must fail loudly
// rather than contribute shards from a different search to the merge.

// ShardRequest is the submission body of a "shard" run.
type ShardRequest struct {
	// Spec is the same partitioning-spec JSON an eval run takes; the
	// worker derives problem, knobs and predictions from it.
	Spec json.RawMessage `json:"spec"`
	// Shards is the plan's shard count (geometry, not parallelism).
	Shards int `json:"shards"`
	// Indices are the shard indices of [0, Shards) this lease executes.
	Indices []int `json:"indices"`
	// Signature is the coordinator's plan signature; execution is refused
	// when the worker's locally recomputed signature differs.
	Signature string `json:"signature"`
}

// ShardResponse is the result JSON of a "shard" run.
type ShardResponse struct {
	Signature string                     `json:"signature"`
	Shards    int                        `json:"shards"`
	Results   map[int]*core.SearchResult `json:"results"`
	Trials    int                        `json:"trials"`
}

// shardJob decodes and checks a shard request at submission, so a
// malformed one is rejected with 400 at the door, and returns the lease's
// body.
func shardJob(raw json.RawMessage) (JobFunc, error) {
	var req ShardRequest
	if len(raw) == 0 {
		return nil, fmt.Errorf("spec required for this run kind")
	}
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("shard request: %w", err)
	}
	if len(req.Spec) == 0 {
		return nil, fmt.Errorf("shard request: spec required")
	}
	prob, err := spec.Parse(req.Spec)
	if err != nil {
		return nil, err
	}
	if req.Shards <= 0 {
		return nil, fmt.Errorf("shard request: shards must be positive")
	}
	if len(req.Indices) == 0 {
		return nil, fmt.Errorf("shard request: at least one shard index required")
	}
	for _, si := range req.Indices {
		if si < 0 || si >= req.Shards {
			return nil, fmt.Errorf("shard request: index %d out of range [0,%d)", si, req.Shards)
		}
	}
	return func(ctx context.Context, jc JobContext) (any, error) {
		cfg := prob.Config
		jc.wire(ctx, &cfg)
		preds, err := core.PredictPartitions(prob.Partitioning, cfg)
		if err != nil {
			return nil, err
		}
		plan, err := core.PlanShards(prob.Partitioning, cfg, preds, prob.Heuristic, req.Shards)
		if err != nil {
			return nil, err
		}
		if plan.Shards != req.Shards {
			return nil, fmt.Errorf("shard: plan geometry mismatch: request says %d shards, local plan has %d",
				req.Shards, plan.Shards)
		}
		if req.Signature != "" && plan.Signature != req.Signature {
			jc.Metrics.Inc("serve.shard.signature_mismatch")
			return nil, fmt.Errorf("shard: plan signature mismatch: request %.12s.., local %.12s..",
				req.Signature, plan.Signature)
		}
		done, err := core.SearchShards(prob.Partitioning, cfg, preds, prob.Heuristic,
			req.Shards, req.Indices)
		if err != nil {
			return nil, err
		}
		resp := &ShardResponse{
			Signature: plan.Signature,
			Shards:    plan.Shards,
			Results:   done,
		}
		for _, r := range done {
			resp.Trials += r.Trials
		}
		jc.Log.Info("shard lease executed", "shards", len(req.Indices),
			"of", plan.Shards, "trials", resp.Trials)
		return resp, nil
	}, nil
}
