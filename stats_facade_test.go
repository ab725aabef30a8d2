package chop_test

import (
	"testing"

	chop "chop"
)

// TestRunStatsThroughFacade runs the documented telemetry session through
// the public API: attach a RunStats to a run, then check the final fold
// agrees with the result.
func TestRunStatsThroughFacade(t *testing.T) {
	p, cfg := obsProblem()
	cfg.Stats = chop.NewRunStats("facade")

	res, _, err := chop.Run(p, cfg, chop.Enumeration)
	if err != nil {
		t.Fatal(err)
	}

	fold := cfg.Stats.Snapshot()
	if !fold.Started || !fold.Done() {
		t.Fatalf("final fold not terminal: %+v", fold)
	}
	if fold.Trials != int64(res.Trials) {
		t.Fatalf("fold counted %d trials, search ran %d", fold.Trials, res.Trials)
	}
	if fold.Feasible != int64(res.FeasibleTrials) {
		t.Fatalf("fold counted %d feasible, search found %d", fold.Feasible, res.FeasibleTrials)
	}
	var perShard int64
	for _, sh := range fold.ShardTable {
		perShard += sh.Trials
	}
	if perShard != fold.Trials {
		t.Fatalf("shard table sums to %d, aggregate %d", perShard, fold.Trials)
	}
}
