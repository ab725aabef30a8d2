package core

import (
	"encoding/json"
	"fmt"
	"testing"

	"chop/internal/bad"
)

// searchAllShards runs every shard of a plan of `shards` shards in one
// SearchShards call and returns the done-set.
func searchAllShards(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) map[int]*SearchResult {
	t.Helper()
	all := make([]int, shards)
	for si := range all {
		all[si] = si
	}
	done, err := SearchShards(p, cfg, preds, h, shards, all)
	if err != nil {
		t.Fatalf("SearchShards: %v", err)
	}
	return done
}

// planAndRunAll plans the shard decomposition and executes every shard in
// one SearchShards call, returning the plan, the done-set and the merged
// result.
func planAndRunAll(t *testing.T, p *Partitioning, cfg Config, h Heuristic, shards int) (ShardPlan, map[int]*SearchResult, SearchResult) {
	t.Helper()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	plan, err := PlanShards(p, cfg, preds, h, shards)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	done := searchAllShards(t, p, cfg, preds, h, plan.Shards)
	merged, err := MergeShardResults(h, plan.Shards, done)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return plan, done, merged
}

// TestSearchShardsMergeMatchesSerial is the distributed substrate's core
// promise: executing the planned shards (in any split) and merging the
// done-set is byte-identical to the serial oracle, for both heuristics and
// several shard counts.
func TestSearchShardsMergeMatchesSerial(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	for _, h := range []Heuristic{Enumeration, Iterative} {
		cfg := exp1Config()
		cfg.KeepAll = true
		preds, err := PredictPartitions(p, cfg)
		if err != nil {
			t.Fatalf("predict: %v", err)
		}
		serial := mustOracle(t, p, cfg, preds, h)
		want, err := json.Marshal(serial)
		if err != nil {
			t.Fatalf("marshal serial: %v", err)
		}
		for _, shards := range []int{1, 3, 8} {
			_, _, merged := planAndRunAll(t, p, cfg, h, shards)
			got, err := json.Marshal(merged)
			if err != nil {
				t.Fatalf("marshal merged: %v", err)
			}
			if string(got) != string(want) {
				t.Fatalf("h=%v shards=%d: merged result not byte-identical to serial\nserial: %s\nmerged: %s",
					h, shards, want, got)
			}
		}
	}
}

// TestMergeShardResultsAcceptsFullShardLists: a done-set whose shard
// results list every feasible design of their shard, as the oracle's
// per-shard walks do and as older workers and shard logs carry them,
// merges to the same result as the engine's own shard results, alone or
// mixed with them shard by shard. The problems are the AR filter in two
// partitions and three random seeds whose searches keep several designs;
// some of their full shard lists are longer than the shard's frontier.
func TestMergeShardResultsAcceptsFullShardLists(t *testing.T) {
	type problem struct {
		name  string
		p     *Partitioning
		cfg   Config
		preds []bad.Result
	}
	ar := arPartitioning(t, 2, 1)
	arCfg := exp1Config()
	arCfg.KeepAll = true
	problems := []problem{{name: "ar2", p: ar, cfg: arCfg}}
	longer := 0
	for _, seed := range []int64{14, 19, 22} {
		p, cfg, err := randomProblem(t, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		problems = append(problems, problem{name: fmt.Sprintf("seed%d", seed), p: p, cfg: cfg})
	}
	for _, pb := range problems {
		preds, err := PredictPartitions(pb.p, pb.cfg)
		if err != nil {
			t.Fatalf("%s: predict: %v", pb.name, err)
		}
		for _, h := range []Heuristic{Enumeration, Iterative} {
			want, err := json.Marshal(mustOracle(t, pb.p, pb.cfg, preds, h))
			if err != nil {
				t.Fatal(err)
			}
			for _, request := range []int{3, 8} {
				plan, err := PlanShards(pb.p, pb.cfg, preds, h, request)
				if err != nil {
					t.Fatalf("%s: plan: %v", pb.name, err)
				}
				engine := searchAllShards(t, pb.p, pb.cfg, preds, h, plan.Shards)
				full := oracleShards(t, pb.p, pb.cfg, preds, h, request)
				mixed := make(map[int]*SearchResult, plan.Shards)
				for si := 0; si < plan.Shards; si++ {
					mixed[si] = engine[si]
					if si%2 == 0 {
						mixed[si] = full[si]
					}
					if len(full[si].Best) > len(engine[si].Best) {
						longer++
					}
				}
				for _, m := range []struct {
					name string
					done map[int]*SearchResult
				}{{"engine", engine}, {"full", full}, {"mixed", mixed}} {
					merged, err := MergeShardResults(h, plan.Shards, m.done)
					if err != nil {
						t.Fatalf("%s: merge: %v", pb.name, err)
					}
					if got, _ := json.Marshal(merged); string(got) != string(want) {
						t.Fatalf("%s h=%s shards=%d: the %s merge differs from the serial oracle",
							pb.name, h, plan.Shards, m.name)
					}
				}
			}
		}
	}
	if longer == 0 {
		t.Fatal("every full shard list equals the shard's frontier: the test is vacuous")
	}
}

// TestSearchShardsSubsetsCompose: running disjoint index subsets in
// separate SearchShards calls (as different workers would) yields the same
// done-set as one call over all indices.
func TestSearchShardsSubsetsCompose(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	plan, err := PlanShards(p, cfg, preds, Enumeration, 6)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if plan.Shards < 2 {
		t.Fatalf("want >= 2 shards, got %d", plan.Shards)
	}
	var a, b []int
	for si := 0; si < plan.Shards; si++ {
		if si%2 == 0 {
			a = append(a, si)
		} else {
			b = append(b, si)
		}
	}
	done := make(map[int]*SearchResult)
	for _, part := range [][]int{a, b} {
		d, err := SearchShards(p, cfg, preds, Enumeration, plan.Shards, part)
		if err != nil {
			t.Fatalf("SearchShards(%v): %v", part, err)
		}
		for si, r := range d {
			done[si] = r
		}
	}
	merged, err := MergeShardResults(Enumeration, plan.Shards, done)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	serial := mustOracle(t, p, cfg, preds, Enumeration)
	want, _ := json.Marshal(serial)
	got, _ := json.Marshal(merged)
	if string(got) != string(want) {
		t.Fatalf("split execution diverged from serial")
	}
}

// TestPlanShardsSignatureInvariance: the signature pins the search — same
// inputs agree, different knobs or geometry differ.
func TestPlanShardsSignatureInvariance(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	p1, err := PlanShards(p, cfg, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	p2, err := PlanShards(p, cfg, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p1.Signature == "" || p1.Signature != p2.Signature {
		t.Fatalf("same plan, different signatures: %q vs %q", p1.Signature, p2.Signature)
	}
	p3, err := PlanShards(p, cfg, preds, Enumeration, 2)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p3.Signature == p1.Signature {
		t.Fatalf("different shard geometry, same signature")
	}
	cfg2 := cfg
	cfg2.KeepAll = !cfg.KeepAll
	p4, err := PlanShards(p, cfg2, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p4.Signature == p1.Signature {
		t.Fatalf("different knobs, same signature")
	}
	// Iterative plans ignore the requested shard count.
	i1, err := PlanShards(p, cfg, preds, Iterative, 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	i2, err := PlanShards(p, cfg, preds, Iterative, 99)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if i1.Shards != i2.Shards || i1.Signature != i2.Signature {
		t.Fatalf("iterative plan depends on requested count: %+v vs %+v", i1, i2)
	}
}

// TestSearchShardsRejectsBadInputs: geometry mismatches and bad indices
// fail fast instead of silently producing a divergent merge.
func TestSearchShardsRejectsBadInputs(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	plan, err := PlanShards(p, cfg, preds, Enumeration, 4)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if _, err := SearchShards(p, cfg, preds, Enumeration, plan.Total+1, []int{0}); err == nil {
		t.Fatalf("enumeration shard count beyond the combination count accepted")
	}
	iplan, err := PlanShards(p, cfg, preds, Iterative, 0)
	if err != nil {
		t.Fatalf("iterative plan: %v", err)
	}
	if _, err := SearchShards(p, cfg, preds, Iterative, iplan.Shards+1, []int{0}); err == nil {
		t.Fatalf("iterative shard-count mismatch accepted")
	}
	if _, err := SearchShards(p, cfg, preds, Enumeration, plan.Shards, []int{plan.Shards}); err == nil {
		t.Fatalf("out-of-range index accepted")
	}
	if _, err := SearchShards(p, cfg, preds, Enumeration, plan.Shards, []int{0, 0}); err == nil {
		t.Fatalf("duplicate index accepted")
	}
	if _, err := MergeShardResults(Enumeration, plan.Shards, map[int]*SearchResult{}); err == nil {
		t.Fatalf("merge with missing shards accepted")
	}
}
