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
// divergence. Of the trial path the walks share only integrate and
// finishSearch with the engine: they fill each combination's designs by
// value, book trials with oracleRecord, which keeps every feasible design
// until finishSearch reduces them, and publish no telemetry.

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
	designs := make([]bad.Design, len(idx))
	choice := make([]*bad.Design, len(idx))
	for i, j := range idx {
		designs[i] = lists[i][j]
		choice[i] = &designs[i]
	}
	if l == 0 {
		for _, d := range designs {
			l = max(l, d.IIMainCycles(cfg.Clocks))
		}
	}
	res.Trials++
	g, err := it.integrate(sc, choice, l, nil)
	if err != nil {
		return nil, err
	}
	oracleRecord(res, cfg, g)
	return g, nil
}

// oracleRecord books a trial into res the way the engine's record did
// before it kept the frontier online: every feasible design is owned and
// appended to Best, and finishSearch alone reduces them to the
// non-inferior set. Infeasible designs leave only their Space point under
// KeepAll, and early rejections not even that.
func oracleRecord(res *SearchResult, cfg Config, g *GlobalDesign) {
	if g.Feasible {
		res.FeasibleTrials++
		res.Best = append(res.Best, g.own())
	}
	if cfg.KeepAll && len(g.ChipArea) > 0 {
		res.Space = append(res.Space, SpacePoint{
			AreaML:   g.TotalArea(),
			DelayNS:  g.DelayNS.ML,
			IIMain:   g.IIMain,
			Feasible: g.Feasible,
		})
	}
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
		if w[i] = nextValid(list, -1, l, cfg.Clocks); w[i] < 0 {
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
			ni := nextValid(lists[pi], w[pi], l, cfg.Clocks)
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
		w[bestQ] = nextValid(lists[bestQ], w[bestQ], l, cfg.Clocks)
	}
}

// oracleShards runs every shard of the engine's plan for (p, cfg, preds, h,
// shards) with the serial walks and returns the shard results as the engine
// returned them before it kept only each shard's frontier: every feasible
// design of the shard in visit order, unreduced. Older workers' shard
// payloads and shard logs carry such results.
func oracleShards(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, shards int) map[int]*SearchResult {
	t.Helper()
	pl, err := planSearch(p, cfg, preds, h, shards)
	if err != nil {
		t.Fatal(err)
	}
	it, err := newIntegrator(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[int]*SearchResult, pl.shards)
	for si := 0; si < pl.shards; si++ {
		res := &SearchResult{}
		if h == Iterative {
			err = oracleInterval(it, cfg, pl.lists, pl.intervals[si], res)
		} else {
			lo, hi := shardRange(pl.total, pl.shards, si)
			idx := make([]int, len(pl.lists))
			decodeCombination(lo, pl.lists, idx)
			for k := lo; k < hi && err == nil; k++ {
				_, err = oracleTrial(it, cfg, pl.lists, idx, 0, res)
				advanceOdometer(idx, pl.lists)
			}
		}
		if err != nil {
			t.Fatalf("oracle shard %d: %v", si, err)
		}
		done[si] = res
	}
	return done
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
