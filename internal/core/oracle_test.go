package core

import (
	"testing"

	"chop/internal/bad"
)

// The serial reference walks of the paper's two heuristics. The engine
// (engine.go) plans shards, runs them on a worker pool and merges; these
// walks do none of that. The odometer enumerates every combination in
// order, and the Figure-5 walk visits each candidate interval in turn, all
// into one SearchResult on one goroutine. The engine must reproduce their
// results byte for byte at every worker count and shard split, which makes
// them the independent oracle of the byte-identity tests. They share only
// the per-trial steps (enumTrial, iterativeInterval, record) with the
// engine, and publish no telemetry.

// oracleSearch runs heuristic h over preds with the serial walks.
func oracleSearch(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) (SearchResult, error) {
	it, err := newIntegrator(p, cfg)
	if err != nil {
		return SearchResult{}, err
	}
	lists := make([][]bad.Design, len(preds))
	for i, r := range preds {
		lists[i] = r.Designs
	}
	res := SearchResult{Heuristic: h}
	for _, l := range lists {
		if len(l) == 0 {
			return res, nil // no viable combination exists
		}
	}
	if h == Enumeration {
		err = oracleEnumerate(it, cfg, lists, &res)
	} else {
		err = oracleIterative(it, cfg, lists, &res)
	}
	if err != nil {
		return res, err
	}
	finishSearch(&res)
	return res, nil
}

// oracleEnumerate walks the odometer over every combination, last digit
// fastest.
func oracleEnumerate(it *integrator, cfg Config, lists [][]bad.Design, res *SearchResult) error {
	if _, err := enumSpaceSize(cfg, lists); err != nil {
		return err
	}
	idx := make([]int, len(lists))
	choice := make([]bad.Design, len(lists))
	for {
		if err := enumTrial(it, cfg, res, lists, idx, choice, nil, nil, nil); err != nil {
			return err
		}
		if !advanceOdometer(idx, lists) {
			return nil
		}
	}
}

// oracleIterative runs the Figure-5 serialization loop for every candidate
// interval, fastest first.
func oracleIterative(it *integrator, cfg Config, lists [][]bad.Design, res *SearchResult) error {
	for _, l := range iterativeIntervals(cfg, lists) {
		if err := iterativeInterval(it, cfg, lists, l, res, nil, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// mustOracle is oracleSearch for tests that expect it to succeed.
func mustOracle(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) SearchResult {
	t.Helper()
	res, err := oracleSearch(p, cfg, preds, h)
	if err != nil {
		t.Fatalf("serial oracle (%s): %v", h, err)
	}
	return res
}
