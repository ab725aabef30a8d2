package core

import (
	"slices"
	"testing"

	"chop/internal/bad"
)

// The serial reference walks of the paper's two heuristics. The engine
// (engine.go) plans shards, runs them on a worker pool and merges; these
// walks do none of that. The odometer enumerates every combination in
// order, and the Figure-5 walk visits each candidate interval in turn, all
// into one SearchResult on one goroutine. The engine must reproduce their
// results byte for byte at every worker count and shard split, which makes
// them the independent oracle of the byte-identity tests. Every trial here
// integrates in fresh scratch, while the engine's workers reuse theirs, so
// a design that keeps pointing into scratch after record shows up as a
// divergence. The walks share only integrate and record with the engine,
// and publish no telemetry.

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

// oracleTrial integrates the combination idx at interval l (0: the slowest
// design's interval) in fresh scratch and books it into res.
func oracleTrial(it *integrator, cfg Config, lists [][]bad.Design, idx []int, l int, res *SearchResult) (*GlobalDesign, error) {
	sc := it.newScratch()
	for i, j := range idx {
		sc.choice[i] = lists[i][j]
	}
	if l == 0 {
		for _, d := range sc.choice {
			l = max(l, d.IIMainCycles(cfg.Clocks))
		}
	}
	res.Trials++
	g, err := it.integrate(sc, sc.choice, l, nil)
	if err != nil {
		return nil, err
	}
	record(res, cfg, g)
	return g, nil
}

// oracleEnumerate walks the odometer over every combination, last digit
// fastest.
func oracleEnumerate(it *integrator, cfg Config, lists [][]bad.Design, res *SearchResult) error {
	if _, err := enumSpaceSize(cfg, lists); err != nil {
		return err
	}
	idx := make([]int, len(lists))
	for {
		if _, err := oracleTrial(it, cfg, lists, idx, 0, res); err != nil {
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
		if err := oracleInterval(it, cfg, lists, l, res); err != nil {
			return err
		}
	}
	return nil
}

// oracleInterval is the Figure-5 loop at interval l: start from the fastest
// valid designs, and while the integration fails on chip area, slow down
// the partition on a violating chip whose tentative serialization gives the
// least system delay.
func oracleInterval(it *integrator, cfg Config, lists [][]bad.Design, l int, res *SearchResult) error {
	w := make([]int, len(lists))
	for i, list := range lists {
		if w[i] = nextValid(list, -1, l, cfg); w[i] < 0 {
			return nil
		}
	}
	for {
		g, err := oracleTrial(it, cfg, lists, w, l, res)
		if err != nil || g.Feasible {
			return err
		}
		var q []int
		for pi, ci := range it.p.PartChip {
			if slices.Contains(g.AreaViolations, ci) {
				q = append(q, pi)
			}
		}
		bestQ, bestDelay := -1, 0
		for _, pi := range q {
			ni := nextValid(lists[pi], w[pi], l, cfg)
			if ni < 0 {
				continue
			}
			tw := slices.Clone(w)
			tw[pi] = ni
			tg, err := oracleTrial(it, cfg, lists, tw, l, res)
			if err != nil {
				return err
			}
			if bestQ < 0 || tg.DelayMain < bestDelay {
				bestQ, bestDelay = pi, tg.DelayMain
			}
		}
		if bestQ < 0 {
			return nil
		}
		w[bestQ] = nextValid(lists[bestQ], w[bestQ], l, cfg)
	}
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
