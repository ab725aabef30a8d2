package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"chop/internal/bad"
	"chop/internal/obs"
)

// Heuristic selects the combination-search strategy (paper section 2.4:
// "the designer may choose between two separate heuristics at run-time").
type Heuristic int

// The two heuristics of the paper.
const (
	// Enumeration explicitly enumerates all combinations of per-partition
	// predicted implementations ("E" in the paper's tables).
	Enumeration Heuristic = iota
	// Iterative is the Figure-5 algorithm: for each feasible initiation
	// interval start from the fastest implementations and serialize
	// partitions on area-violating chips ("I" in the tables).
	Iterative
)

func (h Heuristic) String() string {
	switch h {
	case Enumeration:
		return "E"
	case Iterative:
		return "I"
	}
	return fmt.Sprintf("Heuristic(%d)", int(h))
}

// SpacePoint is one explored global design point, recorded when pruning is
// disabled (the dots of paper Figs. 7 and 8).
type SpacePoint struct {
	AreaML   float64 // total most-likely silicon area, square mils
	DelayNS  float64 // most-likely system delay, ns
	IIMain   int     // system initiation interval, main cycles
	Feasible bool
}

// SearchResult aggregates one heuristic run over a partitioning.
type SearchResult struct {
	Heuristic Heuristic
	// Trials counts the global implementation combinations examined (the
	// "Partitioning Imp. Trials" column); FeasibleTrials those found
	// feasible (the "Feasible Trials" column).
	Trials, FeasibleTrials int
	// Best holds the non-inferior feasible global designs, fastest first.
	Best []GlobalDesign
	// Space holds every explored point when Config.KeepAll is set.
	Space []SpacePoint
}

// maxCombinations is the default guard of the explicit enumeration against
// explosive inputs; override with Config.MaxCombinations.
const maxCombinations = 5_000_000

// combinationLimit resolves the enumeration guard for a run.
func combinationLimit(cfg Config) int {
	if cfg.MaxCombinations > 0 {
		return cfg.MaxCombinations
	}
	return maxCombinations
}

// Search runs the selected heuristic over per-partition predictions
// produced by PredictPartitions.
func Search(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) (SearchResult, error) {
	return search(p, cfg, preds, h, nil)
}

// search is Search with an optional parent span, so the stage nests under
// Run when reached through it.
func search(p *Partitioning, cfg Config, preds []bad.Result, h Heuristic, parent *obs.Span) (SearchResult, error) {
	it, err := newIntegrator(p, cfg)
	if err != nil {
		return SearchResult{}, err
	}
	// Link the phase accounter into the live stats so run snapshots carry
	// the per-phase breakdown (first attachment wins).
	cfg.Stats.AttachPhases(cfg.Phases)
	attachCacheSampler(cfg)
	sp := obs.SpanUnder(cfg.Trace, parent, "Search",
		obs.F("heuristic", h.String()), obs.F("workers", cfg.searchWorkers()))
	defer cfg.Metrics.Timer("core.search_us")()
	var res SearchResult
	var gerr error
	// The engine runs under run/phase pprof labels, so a CPU profile
	// sampled during the search slices by run and stage; pool workers
	// inherit the labels through cfg.Ctx. Every shard has its own panic
	// guard; this one catches a panic outside any shard (planning,
	// checkpoint restore, merge), so Search never takes down the process.
	obs.DoLabeled(cfg.Ctx, func(ctx context.Context) {
		cfg.Ctx = ctx
		gerr = guard(cfg.Metrics, "core.search", func() error {
			var serr error
			res, serr = runSearch(it, cfg, preds, h, sp)
			return serr
		})
	}, "run", cfg.Stats.Label(), "phase", "search", "trace", cfg.Trace.TraceID())
	emitPhases(cfg, sp)
	sp.End(obs.F("trials", res.Trials), obs.F("feasible", res.FeasibleTrials),
		obs.F("best", len(res.Best)))
	return res, gerr
}

// emitPhases records the accounter's cumulative per-phase totals as a
// "phases" trace point at search end, so `chop explain -stats` can replay
// the attribution offline. Totals are cumulative across searches on one
// accounter; replay keeps the last point per run.
func emitPhases(cfg Config, sp *obs.Span) {
	if cfg.Phases == nil || sp == nil {
		return
	}
	snap := cfg.Phases.Snapshot()
	fields := []obs.Field{obs.F("trialNS", snap.TrialNS), obs.F("trials", snap.Trials)}
	for _, p := range snap.Phases {
		fields = append(fields, obs.F(p.Phase, p.NS))
	}
	sp.Point("phases", fields...)
}

// Run is the convenience entry point: predict every partition with BAD,
// then search with the chosen heuristic. It returns both the search result
// and the per-partition prediction statistics (paper Tables 3/5).
func Run(p *Partitioning, cfg Config, h Heuristic) (SearchResult, []bad.Result, error) {
	fields := []obs.Field{obs.F("heuristic", h.String()), obs.F("partitions", len(p.Parts))}
	if p.Graph != nil {
		fields = append(fields, obs.F("graph", p.Graph.Name))
	}
	root := cfg.Trace.Span("Run", fields...)
	defer root.End()
	defer cfg.Metrics.Timer("core.run_us")()
	// Baseline the cache sampler before the predictions that use it, so the
	// reported hit rate covers this run's own predictor work.
	attachCacheSampler(cfg)
	preds, err := predictPartitions(p, cfg, root)
	if err != nil {
		return SearchResult{}, nil, err
	}
	res, err := search(p, cfg, preds, h, root)
	return res, preds, err
}

// attachCacheSampler attaches the predictor cache's hit/miss counters to
// the live stats. The first call wins, so a search reached through Run
// keeps Run's earlier baseline.
func attachCacheSampler(cfg Config) {
	if cfg.Stats != nil && cfg.PredictCache != nil {
		cache := cfg.PredictCache
		cfg.Stats.SetCacheStatsFunc(func() (int64, int64) {
			cs := cache.Stats()
			return cs.Hits, cs.Misses
		})
	}
}

// enumSpaceSize multiplies the per-partition design-list lengths into the
// combination count, enforcing the MaxCombinations guard. A zero return
// with nil error marks an empty search space (some partition has no viable
// prediction, so every combination is infeasible).
func enumSpaceSize(cfg Config, lists [][]bad.Design) (int, error) {
	limit := combinationLimit(cfg)
	total := 1
	for li, l := range lists {
		if len(l) == 0 {
			return 0, nil
		}
		if total > limit/len(l) {
			return 0, fmt.Errorf(
				"core: enumeration space exceeds %d combinations (at least %d after %d of %d partitions); enable pruning or raise Config.MaxCombinations",
				limit, int64(total)*int64(len(l)), li+1, len(lists))
		}
		total *= len(l)
	}
	return total, nil
}

// enumTrial evaluates the combination named by sc.idx in sc and books it
// into res.
func enumTrial(it *integrator, cfg Config, res *SearchResult,
	lists [][]bad.Design, sc *trialScratch, rec *recorder) error {

	choice := sc.choice
	for i, j := range sc.idx {
		choice[i] = lists[i][j]
	}
	// The system interval is set by the slowest partition implementation
	// in the combination.
	l := 0
	for _, d := range choice {
		if ii := d.IIMainCycles(cfg.Clocks); ii > l {
			l = ii
		}
	}
	res.Trials++
	g, err := it.evalTrial(rec, sc, choice, l)
	if err != nil {
		return err
	}
	record(res, cfg, g)
	return nil
}

// advanceOdometer steps idx to the next combination (last digit fastest)
// and reports whether one exists.
func advanceOdometer(idx []int, lists [][]bad.Design) bool {
	for i := len(idx) - 1; i >= 0; i-- {
		idx[i]++
		if idx[i] < len(lists[i]) {
			return true
		}
		idx[i] = 0
	}
	return false
}

// iterativeIntervals computes the candidate system initiation intervals:
// every distinct II offered by any partition that is not below the floor
// imposed by the slowest partition's fastest design, bounded by the
// performance constraint. Ascending, so faster designs are tried first.
func iterativeIntervals(cfg Config, lists [][]bad.Design) []int {
	floor := 0
	for _, list := range lists {
		min := list[0].IIMainCycles(cfg.Clocks)
		for _, d := range list[1:] {
			if ii := d.IIMainCycles(cfg.Clocks); ii < min {
				min = ii
			}
		}
		if min > floor {
			floor = min
		}
	}
	cand := map[int]bool{}
	for _, list := range lists {
		for _, d := range list {
			ii := d.IIMainCycles(cfg.Clocks)
			if ii >= floor {
				cand[ii] = true
			}
		}
	}
	var intervals []int
	for l := range cand {
		if b := cfg.Constraints.Perf; b.Bound > 0 && float64(l)*cfg.Clocks.MainNS > b.Bound {
			continue // even the unadjusted clock busts the bound
		}
		intervals = append(intervals, l)
	}
	sort.Ints(intervals)
	return intervals
}

// iterativeInterval runs the paper's Figure-5 serialization loop for one
// candidate system interval in sc, booking every examined trial into res.
// The loop for one interval is independent of every other interval's,
// which is what makes each interval one shard of the engine, merged back
// in interval order.
func iterativeInterval(it *integrator, cfg Config, lists [][]bad.Design, l int,
	res *SearchResult, rec *recorder, sc *trialScratch) error {

	// Initialize W_i to the fastest valid implementation at interval l
	// (paper: advance each W_i until L_i >= l or W_i is non-pipelined
	// with L_i <= l).
	w, choice := sc.idx, sc.choice
	for i, list := range lists {
		w[i] = nextValid(list, -1, l, cfg)
		if w[i] < 0 {
			return nil
		}
	}
	for {
		if err := cfg.canceled(); err != nil {
			return err
		}
		for i := range lists {
			choice[i] = lists[i][w[i]]
		}
		res.Trials++
		g, err := it.evalTrial(rec, sc, choice, l)
		if err != nil {
			return err
		}
		record(res, cfg, g)
		if g.Feasible {
			return nil // Q := nil
		}
		// Q: partitions residing on chips whose area constraint was
		// violated by the last integration prediction.
		sc.q = partitionsOnChips(sc.q[:0], it.p, g.AreaViolations)
		if len(sc.q) == 0 {
			return nil
		}
		// Tentatively serialize each candidate and keep the one whose
		// expected system delay (via urgency scheduling) is minimal. Each
		// tentative trial changes one design of choice and restores it
		// once the trial is booked.
		bestQ, bestDelay := -1, 0
		for _, pi := range sc.q {
			ni := nextValid(lists[pi], w[pi], l, cfg)
			if ni < 0 {
				continue
			}
			choice[pi] = lists[pi][ni]
			res.Trials++
			tg, err := it.evalTrial(rec, sc, choice, l)
			if err != nil {
				return err
			}
			record(res, cfg, tg)
			choice[pi] = lists[pi][w[pi]]
			if bestQ < 0 || tg.DelayMain < bestDelay {
				bestQ, bestDelay = pi, tg.DelayMain
			}
		}
		if bestQ < 0 {
			return nil // no partition can be serialized further
		}
		// The Figure-5 serialization step: slow down bestQ's partition
		// to shrink its area footprint on the violating chip.
		rec.serialize(l, bestQ, bestDelay)
		w[bestQ] = nextValid(lists[bestQ], w[bestQ], l, cfg)
	}
}

// nextValid returns the index of the first design after `from` that is
// selectable at system interval l, or -1.
func nextValid(list []bad.Design, from, l int, cfg Config) int {
	for i := from + 1; i < len(list); i++ {
		if selectionOK(list[i], l, cfg.Clocks) {
			return i
		}
	}
	return -1
}

// partitionsOnChips appends to dst the partitions residing on any of the
// given chips, in ascending order.
func partitionsOnChips(dst []int, p *Partitioning, chips []int) []int {
	for pi, ci := range p.PartChip {
		if slices.Contains(chips, ci) {
			dst = append(dst, pi)
		}
	}
	return dst
}

// record books a trial into the search result, applying level-2 pruning:
// infeasible global predictions are discarded immediately unless KeepAll
// (the worker's recorder reports the pruning decision). g points into trial
// scratch: a kept design is copied out by own, and a space point copies
// scalars.
//
// record always appends to a single-goroutine result, a shard's private
// buffer (see mergeShards). KeepAll runs therefore never interleave Space
// appends across shards, and no mutex guards the result.
func record(res *SearchResult, cfg Config, g *GlobalDesign) {
	if g.Feasible {
		res.FeasibleTrials++
		res.Best = append(res.Best, g.own())
	}
	// Early-rejected combinations (rate mismatch, data clash) never reach
	// the area/delay predictions and contribute no point to the figures.
	if cfg.KeepAll && len(g.ChipArea) > 0 {
		res.Space = append(res.Space, SpacePoint{
			AreaML:   g.TotalArea(),
			DelayNS:  g.DelayNS.ML,
			IIMain:   g.IIMain,
			Feasible: g.Feasible,
		})
	}
}

// finishSearch reduces Best to the non-inferior set: no kept design is
// dominated on (II, system delay), matching the "feasible and non-inferior
// predicted designs" reported in the paper's tables.
func finishSearch(res *SearchResult) {
	sort.SliceStable(res.Best, func(i, j int) bool {
		if res.Best[i].IIMain != res.Best[j].IIMain {
			return res.Best[i].IIMain < res.Best[j].IIMain
		}
		return res.Best[i].DelayMain < res.Best[j].DelayMain
	})
	var keep []GlobalDesign
	for _, g := range res.Best {
		dominated := false
		for _, k := range keep {
			if k.IIMain <= g.IIMain && k.DelayMain <= g.DelayMain {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, g)
		}
	}
	res.Best = keep
}
