package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"chop/internal/bad"
	"chop/internal/benchkit"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/experiments"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/stats"
)

// batchDef is a workload whose ops run one after another on one
// goroutine, as `chop exp1`, `chopspace` or a library caller would.
type batchDef struct {
	name string
	// setup builds the inputs for a seed. It is timed and repeated; p is
	// non-nil when the traced run sets up.
	setup func(seed int64, p *probe) (*batchRun, error)
	// tracedOps is the traced pass's op count.
	tracedOps int
	// predictInSetup marks a workload whose ops make no predictions, so its
	// bad.* metrics cover one traced set-up instead of one op.
	predictInSetup bool
}

// batchRun is one set-up's inputs and the op over them.
type batchRun struct {
	// prepare computes references after set-up, outside setup_s and the
	// timed window.
	prepare func() error
	// op runs one op; p is nil outside the traced pass.
	op func(p *probe) (opOut, error)
	// problem builds the search the layer probes use.
	problem func() (searchProblem, error)
	// predicts lists the bad.Predict inputs of one op (of one set-up when
	// predictInSetup).
	predicts func() []predictCall
	// extra adds workload-specific traced measurements.
	extra func(p *probe, l *layerSet) error
}

// opOut is what one op produced: its search trials and the check of its
// output against golden files and references, run outside the timing.
type opOut struct {
	trials int
	check  func() error
}

// searchProblem is one search's inputs.
type searchProblem struct {
	p     *core.Partitioning
	cfg   core.Config
	preds []bad.Result
	h     core.Heuristic
}

// predictCall is one bad.Predict input, as core derives it.
type predictCall struct {
	g   *dfg.Graph
	cfg bad.Config
}

// predictCalls lists the bad.Predict inputs core.PredictPartitions derives
// for p under cfg: one per partition subgraph, bounded by the largest
// usable chip area.
func predictCalls(p *core.Partitioning, cfg core.Config) []predictCall {
	maxArea := 0.0
	for _, ch := range p.Chips.Chips {
		if a := ch.Pkg.ProjectArea(); a > maxArea {
			maxArea = a
		}
	}
	bc := bad.Config{
		Lib: cfg.Lib, Style: cfg.Style, Clocks: cfg.Clocks, MaxArea: maxArea,
		Perf: cfg.Constraints.Perf, Delay: cfg.Constraints.Delay, KeepAll: cfg.KeepAll,
	}
	var out []predictCall
	for _, sub := range p.Subgraphs() {
		out = append(out, predictCall{sub, bc})
	}
	return out
}

// predict is core.PredictPartitions under a span, instrumented when traced.
func predict(p *probe, part *core.Partitioning, cfg core.Config) ([]bad.Result, error) {
	var preds []bad.Result
	err := p.call("core.PredictPartitions", func() (err error) {
		preds, err = core.PredictPartitions(part, p.config(cfg))
		return err
	})
	return preds, err
}

// search is core.Search under a span, instrumented when traced.
func search(p *probe, sp searchProblem) (core.SearchResult, error) {
	var res core.SearchResult
	err := p.call("core.Search", func() (err error) {
		res, err = core.Search(sp.p, p.config(sp.cfg), sp.preds, sp.h)
		return err
	})
	return res, err
}

var batchDefs = []batchDef{
	{name: "tables", setup: tablesSetup, tracedOps: 3},
	{name: "fig7", setup: fig7Setup, tracedOps: 1},
	{name: "stress6", setup: stress6Setup, tracedOps: 3, predictInSetup: true},
}

// ---- tables ---------------------------------------------------------------

// resultConfigs is the (partitions, package) schedule of Tables 4 and 6;
// the traced pass re-expresses experiments.Results with it.
var resultConfigs = []struct{ n, pkg int }{{1, 2}, {2, 2}, {2, 1}, {3, 2}}

// tablesSetup regenerates Tables 3-6 as `chop exp1` and `chop exp2` do:
// serial, no predictor cache. The seed orders the four tables.
func tablesSetup(seed int64, _ *probe) (*batchRun, error) {
	var want tablesGolden
	if err := loadGolden("tables", &want); err != nil {
		return nil, err
	}
	exps := []*experiments.Experiment{experiments.New(1), experiments.New(2)}
	order := rand.New(rand.NewSource(seed)).Perm(4)
	run := &batchRun{}
	run.op = func(p *probe) (opOut, error) {
		var got tablesGolden
		for _, k := range order {
			e := exps[k/2]
			t := got.exp(e.Number)
			var err error
			if k%2 == 0 {
				t.Counts, err = predictionCounts(p, e)
			} else {
				t.Results, err = results(p, e)
			}
			if err != nil {
				return opOut{}, fmt.Errorf("exp%d: %w", e.Number, err)
			}
		}
		trials := 0
		for n := 1; n <= 2; n++ {
			for i := range got.exp(n).Results {
				trials += got.exp(n).Results[i].Trials
				got.exp(n).Results[i].CPU = 0
			}
		}
		return opOut{trials: trials, check: func() error {
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("tables differ from golden")
			}
			return nil
		}}, nil
	}
	run.predicts = func() (calls []predictCall) {
		for _, e := range exps {
			for n := 1; n <= 3; n++ {
				calls = append(calls, predictCalls(e.Partitioning(n, 2), e.Cfg)...)
			}
			for _, rc := range resultConfigs {
				for range []core.Heuristic{core.Enumeration, core.Iterative} {
					calls = append(calls, predictCalls(e.Partitioning(rc.n, rc.pkg), e.Cfg)...)
				}
			}
		}
		return calls
	}
	// The largest search of the tables: experiment 1, three partitions,
	// explicit enumeration.
	run.problem = func() (searchProblem, error) {
		e := exps[0]
		part := e.Partitioning(3, 2)
		preds, err := core.PredictPartitions(part, e.Cfg)
		return searchProblem{part, e.Cfg, preds, core.Enumeration}, err
	}
	return run, nil
}

// predictionCounts is Table 3/5. Traced, it makes the calls
// experiments.PredictionCounts makes, each under its own span.
func predictionCounts(p *probe, e *experiments.Experiment) ([]experiments.CountsRow, error) {
	if p == nil {
		return e.PredictionCounts()
	}
	var rows []experiments.CountsRow
	for n := 1; n <= 3; n++ {
		preds, err := predict(p, e.Partitioning(n, 2), e.Cfg)
		if err != nil {
			return nil, err
		}
		row := experiments.CountsRow{Partitions: n}
		for _, r := range preds {
			row.Total += r.Total
			row.Feasible += r.Feasible
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// results is Table 4/6. Traced, each row is core.PredictPartitions then
// core.Search, which is what core.Run does.
func results(p *probe, e *experiments.Experiment) ([]experiments.ResultRow, error) {
	if p == nil {
		return e.Results()
	}
	var rows []experiments.ResultRow
	for _, rc := range resultConfigs {
		for _, h := range []core.Heuristic{core.Enumeration, core.Iterative} {
			part := e.Partitioning(rc.n, rc.pkg)
			preds, err := predict(p, part, e.Cfg)
			if err != nil {
				return nil, err
			}
			res, err := search(p, searchProblem{part, e.Cfg, preds, h})
			if err != nil {
				return nil, err
			}
			row := experiments.ResultRow{
				Partitions: rc.n, Package: rc.pkg, Heuristic: h.String(),
				Trials: res.Trials, FeasibleTrials: res.FeasibleTrials,
			}
			for _, b := range res.Best {
				row.Points = append(row.Points, experiments.DesignPoint{
					II: b.IIMain, Delay: b.DelayMain, ClockNS: b.Clock.ML,
				})
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// tablesGoldenNow regenerates the tables golden.
func tablesGoldenNow() (*tablesGolden, error) {
	var g tablesGolden
	for n := 1; n <= 2; n++ {
		e := experiments.New(n)
		t := g.exp(n)
		var err error
		if t.Counts, err = e.PredictionCounts(); err != nil {
			return nil, err
		}
		if t.Results, err = e.Results(); err != nil {
			return nil, err
		}
		for i := range t.Results {
			t.Results[i].CPU = 0
		}
	}
	return &g, nil
}

// ---- fig7 -----------------------------------------------------------------

// fig7Setup regenerates Figure 7, the unpruned design space of experiment
// 1 over one to three partitions, as `chopspace -exp 1` does. The seed
// orders the partition counts; the check reassembles Explore(1,2,3).
func fig7Setup(seed int64, _ *probe) (*batchRun, error) {
	var want fig7Golden
	if err := loadGolden("fig7", &want); err != nil {
		return nil, err
	}
	if len(want.Parts) != 3 {
		return nil, fmt.Errorf("golden fig7: %d partition counts, want 3", len(want.Parts))
	}
	e := experiments.New(1)
	order := rand.New(rand.NewSource(seed)).Perm(3)
	run := &batchRun{}
	run.op = func(p *probe) (opOut, error) {
		figs := make([]experiments.Figure, 3)
		trials := 0
		for _, k := range order {
			f, err := explore(p, e, k+1)
			if err != nil {
				return opOut{}, fmt.Errorf("explore(%d): %w", k+1, err)
			}
			figs[k] = f
			trials += f.FullTrials + f.PrunedTrials
		}
		return opOut{trials: trials, check: func() error {
			h := sha256.New()
			for k, f := range figs {
				if got := fig7PartOf(k+1, f); got != want.Parts[k] {
					return fmt.Errorf("explore(%d) = %+v, golden %+v", k+1, got, want.Parts[k])
				}
				hashPoints(h, f.Points)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want.PointsSHA256 {
				return fmt.Errorf("points sha256 %s, golden %s", got, want.PointsSHA256)
			}
			return nil
		}}, nil
	}
	full := e.Cfg
	full.KeepAll = true
	run.predicts = func() (calls []predictCall) {
		for n := 1; n <= 3; n++ {
			calls = append(calls, predictCalls(e.Partitioning(n, 2), full)...)
			calls = append(calls, predictCalls(e.Partitioning(n, 2), e.Cfg)...)
		}
		return calls
	}
	// The unpruned three-partition search holds nearly all of the trials.
	run.problem = func() (searchProblem, error) {
		part := e.Partitioning(3, 2)
		preds, err := core.PredictPartitions(part, full)
		return searchProblem{part, full, preds, core.Enumeration}, err
	}
	return run, nil
}

// explore is experiments.Explore(n). Traced, it makes the same unpruned
// and pruned core.PredictPartitions + core.Search calls under spans.
func explore(p *probe, e *experiments.Experiment, n int) (experiments.Figure, error) {
	if p == nil {
		return e.Explore(n)
	}
	var fig experiments.Figure
	full := e.Cfg
	full.KeepAll = true
	part := e.Partitioning(n, 2)
	preds, err := predict(p, part, full)
	if err != nil {
		return fig, err
	}
	res, err := search(p, searchProblem{part, full, preds, core.Enumeration})
	if err != nil {
		return fig, err
	}
	fig.FullTrials = res.Trials
	fig.Points = res.Space
	for _, r := range preds {
		fig.Predictions += r.Total
		fig.UniquePredictions += r.Unique
	}
	part = e.Partitioning(n, 2)
	preds, err = predict(p, part, e.Cfg)
	if err != nil {
		return fig, err
	}
	pruned, err := search(p, searchProblem{part, e.Cfg, preds, core.Enumeration})
	fig.PrunedTrials = pruned.Trials
	return fig, err
}

func fig7GoldenNow() (*fig7Golden, error) {
	e := experiments.New(1)
	var g fig7Golden
	h := sha256.New()
	for n := 1; n <= 3; n++ {
		f, err := e.Explore(n)
		if err != nil {
			return nil, err
		}
		g.Parts = append(g.Parts, fig7PartOf(n, f))
		hashPoints(h, f.Points)
	}
	g.PointsSHA256 = hex.EncodeToString(h.Sum(nil))
	return &g, nil
}

// ---- stress6 --------------------------------------------------------------

const (
	stressParts   = 6
	stressKeep    = 5 // fastest level-1-pruned designs kept per partition
	stressWorkers = 2
)

// stressProblem builds the stress search: benchkit's 6x20 layered graph
// cut into six level partitions on six 84-pin chips, with the five fastest
// pruned designs of each partition in a seed-shuffled order. Every
// ordering enumerates the same 15,625 combinations.
func stressProblem(seed int64, p *probe) (searchProblem, error) {
	g := benchkit.StressDFG(6, 20, 16)
	part := &core.Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, stressParts),
		PartChip: make([]int, stressParts),
		Chips:    chip.NewUniformSet(stressParts, chip.MOSISPackages()[1], 4),
	}
	for i := range part.PartChip {
		part.PartChip[i] = i
	}
	cfg := core.Config{
		Lib:    lib.ExtendedLibrary(),
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: core.Constraints{
			Perf:  stats.Constraint{Bound: 300000, MinProb: 1},
			Delay: stats.Constraint{Bound: 300000, MinProb: 0.8},
		},
	}
	preds, err := predict(p, part, cfg)
	if err != nil {
		return searchProblem{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range preds {
		d := preds[i].Designs
		if len(d) > stressKeep {
			d = d[:stressKeep]
		}
		rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
		preds[i].Designs = d
	}
	return searchProblem{part, cfg, preds, core.Enumeration}, nil
}

// stressRefs holds the one-worker reference search per seed: computed for
// a seed's first set-up, shared by the later ones, which build the same
// problem.
var stressRefs = map[int64]core.SearchResult{}

// stress6Setup searches the stress problem with the sharded engine. Each
// op is checked against a one-worker reference and the golden counts.
func stress6Setup(seed int64, p *probe) (*batchRun, error) {
	var want stress6Golden
	if err := loadGolden("stress6", &want); err != nil {
		return nil, err
	}
	sp, err := stressProblem(seed, p)
	if err != nil {
		return nil, err
	}
	run := &batchRun{
		problem:  func() (searchProblem, error) { return sp, nil },
		predicts: func() []predictCall { return predictCalls(sp.p, sp.cfg) },
	}
	var ref core.SearchResult
	run.prepare = func() (err error) {
		if r, ok := stressRefs[seed]; ok {
			ref = r
			return nil
		}
		ref, err = core.Search(sp.p, sp.cfg, sp.preds, sp.h)
		if err == nil && (ref.Trials != want.Trials || ref.FeasibleTrials != want.FeasibleTrials ||
			!reflect.DeepEqual(front(ref.Best), want.Best)) {
			err = fmt.Errorf("one-worker reference: %d trials, %d feasible, best %v; golden %+v",
				ref.Trials, ref.FeasibleTrials, front(ref.Best), want)
		}
		if err == nil {
			stressRefs[seed] = ref
		}
		return err
	}
	w2 := sp
	w2.cfg.Workers = stressWorkers
	run.op = func(p *probe) (opOut, error) {
		res, err := search(p, w2)
		if err != nil {
			return opOut{}, err
		}
		return opOut{trials: res.Trials, check: func() error {
			if res.Trials != ref.Trials || res.FeasibleTrials != ref.FeasibleTrials ||
				!reflect.DeepEqual(res.Best, ref.Best) {
				return fmt.Errorf("%d workers: %d trials, %d feasible, best %v; one worker: %d, %d, %v",
					stressWorkers, res.Trials, res.FeasibleTrials, front(res.Best),
					ref.Trials, ref.FeasibleTrials, front(ref.Best))
			}
			return nil
		}}, nil
	}
	run.extra = func(p *probe, l *layerSet) error { return stressSpeedup(p, l, sp) }
	return run, nil
}

func stress6GoldenNow() (*stress6Golden, error) {
	sp, err := stressProblem(1, nil)
	if err != nil {
		return nil, err
	}
	res, err := core.Search(sp.p, sp.cfg, sp.preds, sp.h)
	if err != nil {
		return nil, err
	}
	return &stress6Golden{Trials: res.Trials, FeasibleTrials: res.FeasibleTrials, Best: front(res.Best)}, nil
}

// runBatch is the untraced run. Each op runs on inputs set up for it, as
// each `chop exp1` or `chopspace` invocation sets up its own, and is
// followed by its check and its share of calibration, until the run's
// seconds are spent, to the nearest whole op. setup_s is the median
// set-up.
func runBatch(def batchDef, o options, r *report) {
	var t tally
	budget := time.Duration(o.seconds) * time.Second
	var spent time.Duration // set-ups, ops, checks and calibration
	for n := 0; n == 0 || spent+spent/time.Duration(2*n) < budget; n++ {
		t0 := time.Now()
		run, err := def.setup(o.seed, nil)
		setup := time.Since(t0)
		t.setups = append(t.setups, setup.Seconds())
		if err == nil && run.prepare != nil {
			err = run.prepare()
		}
		if err != nil {
			r.fail(1, "setup: %v", err)
			return
		}
		t0 = time.Now()
		r.Attempted++
		var out opOut
		d, err := t.measureOp(func() (err error) {
			out, err = run.op(nil)
			return err
		})
		if err != nil {
			r.fail(1, "op %d: %v", r.Attempted, err)
			return
		}
		t.lat = append(t.lat, ms(d))
		t.trials += out.trials
		if err := out.check(); err != nil {
			r.fail(1, "op %d: %v", r.Attempted, err)
		}
		t.cal.after(d)
		spent += setup + time.Since(t0)
	}
	t.fill(r)
}

// traceBatch is the traced run: a short untraced pass for the overhead
// baseline, then the same ops traced, then the layer probes.
func traceBatch(def batchDef, o options, r *report) {
	plain, err := batchPass(def, o, r)
	if err != nil {
		r.fail(1, "untraced pass: %v", err)
		return
	}
	p := newProbe(def.name)
	l := newLayerSet()
	run, err := def.setup(o.seed, p)
	if err == nil && run.prepare != nil {
		err = run.prepare()
	}
	if err != nil {
		r.fail(1, "traced setup: %v", err)
		return
	}
	var designs []int64
	for i := 0; i < def.tracedOps; i++ {
		before := p.metrics.Counter("bad.designs_total")
		var out opOut
		t0 := time.Now()
		err := p.op("op", i, func() (err error) {
			out, err = run.op(p)
			return err
		})
		d := time.Since(t0)
		r.Attempted++
		if err == nil {
			err = out.check()
		}
		if err != nil {
			r.fail(1, "traced op %d: %v", i, err)
			return
		}
		l.opMS = append(l.opMS, ms(d))
		designs = append(designs, p.metrics.Counter("bad.designs_total")-before)
	}
	for _, d := range designs {
		if d != designs[0] {
			// Every `chop exp1` or `chopspace` invocation pays its own
			// predictions, so a per-op count that shrinks means a memo
			// leaked across ops.
			r.fail(1, "bad.designs_total per op varies across ops: %v", designs)
			break
		}
	}
	self := selfTimes(p.rec.events)
	w := window(obs.Snapshot{}, p.metrics.Snapshot())
	var ph phaseTotals
	ph.add(p.phases.Snapshot())
	per := def.tracedOps
	if def.predictInSetup {
		per = 1
	}
	l.predictor(w, self["core.PredictPartitions"].Seconds(), per)
	l.search(w, ph, self["core.Search"].Seconds(), def.tracedOps)
	calls := run.predicts()
	l.repeatShare(calls)
	if err := l.moduleSets(p, calls, per); err != nil {
		r.fail(1, "module sets: %v", err)
	}
	sp, err := run.problem()
	if err == nil {
		err = l.problemProbes(p, sp, o.seed)
	}
	if err == nil && run.extra != nil {
		err = run.extra(p, l)
	}
	if err != nil {
		r.fail(1, "layer probes: %v", err)
	}
	l.set("trace_overhead_pct", 100*(median(l.opMS)/median(plain)-1), len(l.opMS))
	finishTrace(p, l, o, r)
}

// batchPass runs a set-up and def.tracedOps ops untraced, checking each,
// and returns their latencies.
func batchPass(def batchDef, o options, r *report) ([]float64, error) {
	run, err := def.setup(o.seed, nil)
	if err == nil && run.prepare != nil {
		err = run.prepare()
	}
	if err != nil {
		return nil, err
	}
	var lat []float64
	for i := 0; i < def.tracedOps; i++ {
		r.Attempted++
		t0 := time.Now()
		out, err := run.op(nil)
		lat = append(lat, ms(time.Since(t0)))
		if err == nil {
			err = out.check()
		}
		if err != nil {
			return nil, err
		}
	}
	return lat, nil
}
