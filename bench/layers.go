package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/obs"
	"chop/internal/xfer"
)

// probe is the traced pass's instrumentation, all of it outside the
// program: spans recorded from bench code around calls into each layer's
// public functions, plus the metrics registry and phase accounter that
// core.Config already accepts. A nil probe is the untraced pass.
type probe struct {
	rec     *recorder
	tracer  *obs.Tracer
	metrics *obs.Metrics
	phases  *obs.PhaseAccounter
	// parent is the open op span of a batch pass (one goroutine).
	parent *obs.Span
}

func newProbe(workload string) *probe {
	rec := &recorder{}
	return &probe{
		rec:     rec,
		tracer:  obs.NewTracer(rec, obs.TracerOptions{Run: workload}),
		metrics: obs.NewMetrics(),
		phases:  obs.NewPhaseAccounter(),
	}
}

// call runs f under a span named after the public function it calls.
func (p *probe) call(name string, f func() error) error {
	if p == nil {
		return f()
	}
	sp := obs.SpanUnder(p.tracer, p.parent, name)
	err := f()
	if err != nil {
		sp.End(obs.F("error", err.Error()))
	} else {
		sp.End()
	}
	return err
}

// op runs one op under a root span.
func (p *probe) op(name string, i int, f func() error) error {
	if p == nil {
		return f()
	}
	sp := p.tracer.Span(name, obs.F("index", i))
	p.parent = sp
	err := f()
	p.parent = nil
	sp.End()
	return err
}

// config hands the probe's metrics and phase accounter to core.
func (p *probe) config(cfg core.Config) core.Config {
	if p != nil {
		cfg.Metrics = p.metrics
		cfg.Phases = p.phases
	}
	return cfg
}

// recorder keeps trace events in memory until the run ends.
type recorder struct {
	mu     sync.Mutex
	events []obs.Event
}

func (r *recorder) Emit(ev obs.Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// write saves the trace as chop-trace/1 JSONL and stitches the file back
// the way `chop trace` does, returning the orphan span count.
func (r *recorder) write(path string) (orphans int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(f)
	ws := obs.NewWriterSink(bw)
	for _, ev := range r.events {
		ws.Emit(ev)
	}
	err = ws.Err()
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	rf, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer rf.Close()
	traces, err := obs.Stitch([]obs.StitchSource{{Name: path, R: rf}})
	if err != nil {
		return 0, err
	}
	return obs.OrphanCount(traces), nil
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its child spans cover.
func selfTimes(events []obs.Event) map[string]time.Duration {
	type span struct {
		name       string
		start, end int64
		parent     int64
		kids       [][2]int64
	}
	spans := map[int64]*span{}
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindBegin:
			spans[ev.Span] = &span{name: ev.Name, start: ev.TNS, parent: ev.Parent}
		case obs.KindEnd:
			if s := spans[ev.Span]; s != nil {
				s.end = ev.TNS
			}
		}
	}
	for _, s := range spans {
		if p := spans[s.parent]; p != nil {
			p.kids = append(p.kids, [2]int64{s.start, s.end})
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		sort.Slice(s.kids, func(i, j int) bool { return s.kids[i][0] < s.kids[j][0] })
		var covered, reach int64
		for _, k := range s.kids {
			if k[0] > reach {
				reach = k[0]
			}
			if k[1] > reach {
				covered += k[1] - reach
				reach = k[1]
			}
		}
		self[s.name] += time.Duration(s.end - s.start - covered)
	}
	return self
}

// layerSet collects per-layer values; a metric a workload never sets reads
// 0, which means the layer does no such work on that workload.
type layerSet struct {
	v map[string]float64
	n map[string]int
	// opMS are the traced pass's op latencies.
	opMS []float64
}

func newLayerSet() *layerSet {
	return &layerSet{v: map[string]float64{}, n: map[string]int{}}
}

func (l *layerSet) set(name string, v float64, samples int) {
	l.v[name] = v
	l.n[name] = samples
}

func (l *layerSet) fill(r *report) {
	var none []string
	for _, d := range perLayer {
		v, ok := l.v[d.Name]
		if !ok {
			none = append(none, d.Name)
		}
		r.set(d.Name, v, l.n[d.Name])
	}
	if len(none) > 0 {
		r.note("0 = layer not exercised by this workload: %v", none)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters is a metrics registry's counters and histograms over a window.
type counters struct {
	c map[string]int64
	h map[string]obs.HistSnapshot
}

// window subtracts the before snapshot (counts and sums; means recomputed).
func window(before, after obs.Snapshot) counters {
	w := counters{c: map[string]int64{}, h: map[string]obs.HistSnapshot{}}
	for k, v := range after.Counters {
		w.c[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		d := obs.HistSnapshot{Count: h.Count - b.Count, Sum: h.Sum - b.Sum}
		if d.Count > 0 {
			d.Mean = d.Sum / float64(d.Count)
		}
		w.h[k] = d
	}
	return w
}

// phaseTotals are the in-trial phases of one or more phase snapshots.
type phaseTotals struct {
	trials, trialNS           int64
	schedule, xfer, integrate int64
}

func (t *phaseTotals) add(s *obs.PhaseSnapshot) {
	if s == nil {
		return
	}
	t.trials += s.Trials
	t.trialNS += s.TrialNS
	t.schedule += s.PhaseNS(obs.PhaseSchedule.String())
	t.xfer += s.PhaseNS(obs.PhaseXfer.String())
	t.integrate += s.PhaseNS(obs.PhaseIntegrate.String())
}

// earlyRejects are the checks integrate runs before urgency scheduling.
var earlyRejects = []core.Reason{
	core.ReasonRateMismatch, core.ReasonNoPins, core.ReasonDataClash,
	core.ReasonPinBandwidth, core.ReasonMemBandwidth,
}

// predictor derives the bad.* metrics; predictS is the PredictPartitions
// time and per the number of ops (or set-ups) it covers.
func (l *layerSet) predictor(w counters, predictS float64, per int) {
	n := float64(per)
	calls := w.h["bad.predict_us"].Count + w.c["bad.predict_cache_hit"]
	total := float64(w.c["bad.designs_total"])
	unique := float64(w.c["bad.designs_unique"])
	l.set("bad.predict_s", predictS/n, per)
	l.set("bad.predict_calls", float64(calls)/n, per)
	l.set("bad.designs_total", total/n, per)
	l.set("bad.unique_ratio", ratio(unique, total), per)
	l.set("bad.kept_ratio", ratio(float64(w.c["bad.designs_kept"]), unique), per)
	l.set("bad.us_per_design", ratio(predictS*1e6, total), per)
	hits, misses := w.c["bad.predict_cache_hit"], w.c["bad.predict_cache_miss"]
	l.set("bad.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
}

// search derives the core, phase and urgency metrics per op.
func (l *layerSet) search(w counters, ph phaseTotals, searchS float64, ops int) {
	n := float64(ops)
	trials := float64(w.c["core.trials"])
	var early int64
	for _, r := range earlyRejects {
		early += w.c["core.reject."+r.String()]
	}
	l.set("core.search_s", searchS/n, ops)
	l.set("core.trials", trials/n, ops)
	l.set("core.feasible_ratio", ratio(float64(w.c["core.trials_feasible"]), trials), ops)
	l.set("core.early_reject_share", ratio(float64(early), trials), ops)
	for _, r := range []core.Reason{core.ReasonRateMismatch, core.ReasonArea, core.ReasonDelay, core.ReasonPerf} {
		l.set("core.reject."+r.String(), float64(w.c["core.reject."+r.String()])/n, ops)
	}
	l.set("core.trial_us", ratio(float64(ph.trialNS)/1e3, float64(ph.trials)), int(ph.trials))
	l.set("core.serializations", float64(w.c["core.serializations"])/n, ops)
	l.set("phase.schedule_s", float64(ph.schedule)/1e9/n, ops)
	l.set("phase.xfer_s", float64(ph.xfer)/1e9/n, ops)
	l.set("phase.integrate_s", float64(ph.integrate)/1e9/n, ops)
	ut, uc := w.h["core.urgency_tasks"], w.h["core.urgency_cycles"]
	l.set("urgency.calls", float64(ut.Count)/n, ops)
	l.set("urgency.tasks_mean", ut.Mean, int(ut.Count))
	l.set("urgency.cycles_mean", uc.Mean, int(uc.Count))
}

// repeatShare is the share of bad.Predict calls whose input repeats
// content already predicted (bad.CacheKey), measured from outside: the
// property a predictor cache exploits.
func (l *layerSet) repeatShare(calls []predictCall) {
	keys := map[string]bool{}
	for _, c := range calls {
		keys[bad.CacheKey(c.g, c.cfg)] = true
	}
	l.set("bad.repeat_share", ratio(float64(len(calls)-len(keys)), float64(len(calls))), len(calls))
}

// moduleSets counts the module sets lib.EnumerateSets yields for the
// calls, per op (or set-up).
func (l *layerSet) moduleSets(p *probe, calls []predictCall, per int) error {
	sets := 0
	for _, c := range calls {
		var ops []dfg.Op
		for op := range c.g.OpCounts() {
			ops = append(ops, op)
		}
		err := p.call("lib.EnumerateSets", func() error {
			s, err := c.cfg.Lib.EnumerateSets(ops)
			sets += len(s)
			return err
		})
		if err != nil {
			return err
		}
	}
	l.set("bad.module_sets", float64(sets)/float64(per), per)
	return nil
}

// integrateSample is the number of combinations DebugIntegrator.Eval runs.
const integrateSample = 1000

// problemProbes times the choice-independent and per-trial integration
// layers on one search problem: xfer.BuildTasks, DebugIntegrator.Eval over
// a seeded sample of combinations, and a bare serial search's allocations
// per trial.
func (l *layerSet) problemProbes(p *probe, sp searchProblem, seed int64) error {
	const buildReps = 200
	var tasks int
	var build []float64
	assign := sp.p.Assignment()
	for i := 0; i < buildReps; i++ {
		err := p.call("xfer.BuildTasks", func() error {
			t0 := time.Now()
			ts, err := xfer.BuildTasks(sp.p.Graph, assign, sp.p.PartChip)
			build = append(build, float64(time.Since(t0).Nanoseconds())/1e3)
			tasks = len(ts)
			return err
		})
		if err != nil {
			return err
		}
	}
	l.set("xfer.tasks", float64(tasks), 1)
	l.set("xfer.build_tasks_us", median(build), buildReps)

	for _, r := range sp.preds {
		if len(r.Designs) == 0 {
			return fmt.Errorf("integrate probe: a partition has no designs")
		}
	}
	di := core.NewDebugIntegrator(sp.p, sp.cfg)
	rng := rand.New(rand.NewSource(seed))
	choice := make([]bad.Design, len(sp.preds))
	var evalUS []float64
	var md memDelta
	var allocs uint64
	for i := 0; i < integrateSample; i++ {
		l0 := 0
		for pi, r := range sp.preds {
			choice[pi] = r.Designs[rng.Intn(len(r.Designs))]
			if ii := choice[pi].IIMainCycles(sp.cfg.Clocks); ii > l0 {
				l0 = ii
			}
		}
		p.call("DebugIntegrator.Eval", func() error {
			md.start()
			t0 := time.Now()
			di.Eval(choice, l0)
			evalUS = append(evalUS, float64(time.Since(t0).Nanoseconds())/1e3)
			m, _ := md.stop()
			allocs += m
			return nil
		})
	}
	l.set("integrate.eval_us_p50", median(evalUS), integrateSample)
	l.set("integrate.eval_allocs", float64(allocs)/integrateSample, integrateSample)

	serial := sp
	serial.cfg.Workers = 1
	md.start()
	res, err := core.Search(serial.p, serial.cfg, serial.preds, serial.h)
	m, _ := md.stop()
	if err != nil {
		return err
	}
	l.set("core.allocs_per_trial", ratio(float64(m), float64(res.Trials)), res.Trials)
	return nil
}

// stressSpeedup repeats the traced stress searches on one worker: the
// sharded engine's speedup is the median one-worker search time over the
// median two-worker op.
func stressSpeedup(p *probe, l *layerSet, sp searchProblem) error {
	serial := sp
	serial.cfg.Workers = 1
	var w1 []float64
	for i := range l.opMS {
		err := p.op("op.w1", i, func() error {
			return p.call("core.Search", func() error {
				t0 := time.Now()
				_, err := core.Search(serial.p, serial.cfg, serial.preds, serial.h)
				w1 = append(w1, ms(time.Since(t0)))
				return err
			})
		})
		if err != nil {
			return err
		}
	}
	l.set("core.w2_speedup", ratio(median(w1), median(l.opMS)), len(w1))
	return nil
}
