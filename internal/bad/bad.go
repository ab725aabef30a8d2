// Package bad implements BAD, the Behavioral Area-Delay predictor embedded
// in CHOP (paper reference [5] and section 2.4). Given a partition's
// data-flow graph, a component library and an architecture style, it
// enumerates candidate implementations over
//
//   - design style (pipelined / non-pipelined),
//   - every module-set combination,
//   - serial/parallel trade-offs (functional-unit allocation sweeps driven
//     by a candidate initiation-interval range),
//
// and predicts for each candidate the complete characteristics: schedule
// (stages, initiation interval, latency), register bits, multiplexer count,
// PLA controller area and delay, standard-cell routing area, the delays
// added to the clock cycle, memory bandwidth demands, and a power estimate
// (a paper-section-5 extension). All physical quantities are statistical
// triplets (package stats).
//
// Level-1 pruning (paper section 2.1) happens here: predictions that are
// infeasible against the per-chip area bound or the performance/delay
// constraints, or that are inferior (Pareto-dominated), are discarded
// immediately unless Config.KeepAll is set.
package bad

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"chop/internal/alloc"
	"chop/internal/ctrl"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/sched"
	"chop/internal/stats"
	"chop/internal/wire"
)

// DesignStyle distinguishes pipelined from non-pipelined partition
// implementations.
type DesignStyle int

// Design styles.
const (
	NonPipelined DesignStyle = iota
	Pipelined
)

func (s DesignStyle) String() string {
	if s == Pipelined {
		return "pipelined"
	}
	return "non-pipelined"
}

// Clocks is the clocking input of CHOP (paper section 2.2): a main clock
// from which the datapath and data-transfer clocks are derived as integer
// multiples.
type Clocks struct {
	MainNS       float64 // main clock period in ns (300 in the paper)
	DatapathMult int     // datapath cycle = DatapathMult * main cycles
	TransferMult int     // transfer cycle = TransferMult * main cycles
}

// DatapathNS returns the datapath clock period in nanoseconds.
func (c Clocks) DatapathNS() float64 { return c.MainNS * float64(c.DatapathMult) }

// TransferNS returns the data-transfer clock period in nanoseconds.
func (c Clocks) TransferNS() float64 { return c.MainNS * float64(c.TransferMult) }

// Validate checks the clock configuration.
func (c Clocks) Validate() error {
	if c.MainNS <= 0 {
		return fmt.Errorf("bad: non-positive main clock %v", c.MainNS)
	}
	if c.DatapathMult < 1 || c.TransferMult < 1 {
		return fmt.Errorf("bad: clock multipliers must be >= 1 (got %d, %d)",
			c.DatapathMult, c.TransferMult)
	}
	return nil
}

// Style is the architecture style input (paper section 2.2): whether
// operations may take multiple datapath cycles, and which design styles BAD
// should consider.
type Style struct {
	// MultiCycle allows operations to occupy several datapath cycles. When
	// false (single-cycle style), every operation must complete within one
	// datapath cycle and module sets containing slower modules are skipped.
	MultiCycle bool
	// NoPipelined / NoNonPipelined restrict the considered design styles;
	// by default both are explored, as BAD does.
	NoPipelined    bool
	NoNonPipelined bool
	// Testability, when true, applies the scan-design overhead extension:
	// every register bit doubles as a scan cell (area and clock-overhead
	// surcharge, one extra pin pair reserved at integration).
	Testability bool
}

// Testability overhead constants (extension; paper section 5 names
// testability as future work). A mux-equivalent is added per scan register
// bit and the scan chain adds setup into the clock cycle.
const (
	scanAreaPerRegBit = 9.0 // mil^2 per register bit for scan wiring/cell
	scanClockOverhead = 1.5 // ns added to the clock cycle
)

// Config parameterizes one BAD prediction run.
type Config struct {
	Lib    *lib.Library
	Style  Style
	Clocks Clocks
	// MaxArea is the optimistic per-chip usable area bound in square mils
	// used for level-1 pruning (0 disables the area prune).
	MaxArea float64
	// Perf is the performance constraint on the design's initiation
	// interval in ns (Bound 0 disables). MinProb per the feasibility
	// criteria (1.0 in the paper's experiments).
	Perf stats.Constraint
	// Delay is the system-delay constraint applied to the partition's own
	// compute latency in ns (Bound 0 disables). The full system delay is
	// re-checked after integration; here it only prunes hopeless designs.
	Delay stats.Constraint
	// KeepAll disables level-1 pruning so the whole design space is
	// retained (paper Figs. 7 and 8).
	KeepAll bool
	// MaxII caps the initiation-interval sweep in datapath cycles; 0
	// derives the cap from Perf or, failing that, the serial latency.
	MaxII int
	// Trace, Span and Metrics are the observability hooks (package obs),
	// all nil-safe and off by default. Span, when non-nil, receives this
	// prediction's events directly (core sets it to the per-partition BAD
	// span); otherwise a root "Predict" span is opened on Trace.
	Trace   *obs.Tracer
	Span    *obs.Span
	Metrics *obs.Metrics
	// Cache, when non-nil, memoizes Predict results under their content
	// key (see CacheKey): repeated predictions of unchanged partitions —
	// advisor move loops, KL sweeps, server job bursts — return the cached
	// Result instead of re-sweeping the design space. Lookups count into
	// the bad.predict_cache_hit / bad.predict_cache_miss metrics.
	Cache *PredictCache
	// Inject is the fault-injection hook: when non-nil, Predict consults
	// the "bad.predict" site on entry and fails, panics or stalls on
	// demand (chaos testing). Nil is inert.
	Inject *resilience.Injector
	// Phases, when non-nil, books Predict's cost into the profiling
	// plane: cache key computation + probing as the cache-lookup phase,
	// the design-space sweep itself as the predict phase (cache misses
	// only — hits never reach the sweep). Core sets it to the run's
	// accounter.
	Phases *obs.PhaseAccounter
	// Ctx, when non-nil, bounds the prediction: Predict checks it at every
	// module set and every latency or interval step of the sweep, and once
	// it is done returns its error wrapped, caching nothing. Core sets it
	// to core.Config.Ctx.
	Ctx context.Context
}

// Design is one predicted implementation of a partition.
type Design struct {
	Style     DesignStyle
	ModuleSet lib.ModuleSet
	// FUs is the functional-unit allocation.
	FUs map[dfg.Op]int
	// II is the initiation interval and Latency the input-to-output
	// compute time, both in datapath cycles. For non-pipelined designs
	// II == Latency.
	II, Latency int
	// Stages is the pipeline depth, ceil(Latency/II); 1 for non-pipelined.
	Stages int
	// RegBits and Mux1Bit are the storage/steering allocation.
	RegBits, Mux1Bit int
	// Area is the predicted total partition area in square mils (FUs +
	// registers + muxes + routing + controller).
	Area stats.Triplet
	// ClockOverhead is the delay added to the main clock cycle in ns
	// (register + mux + wiring + controller; pads are added at
	// integration for off-chip paths).
	ClockOverhead stats.Triplet
	// Power is the estimated power in mW (extension).
	Power stats.Triplet
	// MemBits is the number of bits read+written per iteration per memory
	// block, used by the integration bandwidth checks.
	MemBits map[string]int
}

// FUOps returns the op types of the FU allocation in sorted order, the
// order in which to print or sum over it.
func (d Design) FUOps() []dfg.Op {
	ops := make([]dfg.Op, 0, len(d.FUs))
	for op := range d.FUs {
		ops = append(ops, op)
	}
	slices.Sort(ops)
	return ops
}

// IIMainCycles returns the initiation interval expressed in main-clock
// cycles, the unit of the paper's tables. It and LatencyMainCycles take a
// pointer, so the search's per-trial calls through design pointers copy
// no design.
func (d *Design) IIMainCycles(c Clocks) int { return d.II * c.DatapathMult }

// LatencyMainCycles returns the compute latency in main-clock cycles.
func (d *Design) LatencyMainCycles(c Clocks) int { return d.Latency * c.DatapathMult }

// AdjustedClockNS returns the main clock period stretched by the predicted
// overhead, the "Clock Cycle" column of the paper's result tables.
func (d Design) AdjustedClockNS(c Clocks) stats.Triplet {
	return d.ClockOverhead.Add(stats.Exact(c.MainNS))
}

// PerfNS returns the initiation interval in nanoseconds under the adjusted
// clock.
func (d Design) PerfNS(c Clocks) stats.Triplet {
	return d.AdjustedClockNS(c).Scale(float64(d.IIMainCycles(c)))
}

// LatencyNS returns the compute latency in nanoseconds under the adjusted
// clock.
func (d Design) LatencyNS(c Clocks) stats.Triplet {
	return d.AdjustedClockNS(c).Scale(float64(d.LatencyMainCycles(c)))
}

// Result is the outcome of one Predict call.
type Result struct {
	// Designs are the retained predictions, sorted by increasing II then
	// increasing latency then increasing area (the ordering the iterative
	// heuristic requires: fastest first).
	Designs []Design
	// Total is the number of design points generated before pruning and
	// deduplication; Unique the count after deduplication; Feasible the
	// count passing the level-1 feasibility tests.
	Total, Unique, Feasible int
}

// Predict enumerates and evaluates the implementation design space of one
// partition graph.
func Predict(g *dfg.Graph, cfg Config) (Result, error) {
	if cfg.Lib == nil {
		return Result{}, fmt.Errorf("bad: nil library")
	}
	if err := cfg.Lib.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Clocks.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Inject.Fire("bad.predict"); err != nil {
		return Result{}, err
	}
	var cacheKey string
	if cfg.Cache != nil {
		ctok := cfg.Phases.Begin()
		cacheKey = CacheKey(g, cfg)
		r, ok := cfg.Cache.Get(cacheKey)
		cfg.Phases.End(ctok, obs.PhaseCacheLookup)
		if ok {
			cfg.Metrics.Inc("bad.predict_cache_hit")
			if cfg.Span != nil {
				cfg.Span.Point("predict-cache", obs.F("hit", true))
			}
			return r, nil
		}
		cfg.Metrics.Inc("bad.predict_cache_miss")
	}
	ptok := cfg.Phases.Begin()
	defer cfg.Phases.End(ptok, obs.PhasePredict)
	p, err := newPredictor(g, cfg)
	if err != nil {
		return Result{}, err
	}

	// Observability: attach to the caller's span (core's per-partition
	// BAD span) or open a root span when predicting standalone.
	sp := cfg.Span
	ownSpan := false
	if sp == nil && cfg.Trace.Enabled() {
		sp = cfg.Trace.Span("Predict", obs.F("graph", g.Name))
		ownSpan = true
	}
	defer cfg.Metrics.Timer("bad.predict_us")()

	res, err := p.sweep(sp)
	if err != nil {
		if ownSpan {
			sp.End(obs.F("error", err.Error()))
		}
		return Result{}, err
	}
	if !cfg.KeepAll {
		res.Designs = paretoFilter(res.Designs)
	}
	sortDesigns(res.Designs)
	res.Feasible = 0
	for _, d := range res.Designs {
		if Feasible(d, cfg) {
			res.Feasible++
		}
	}
	if m := cfg.Metrics; m != nil {
		m.Add("bad.designs_total", int64(res.Total))
		m.Add("bad.designs_unique", int64(res.Unique))
		m.Add("bad.designs_kept", int64(len(res.Designs)))
	}
	if ownSpan {
		sp.End(obs.F("total", res.Total), obs.F("unique", res.Unique),
			obs.F("kept", len(res.Designs)), obs.F("feasible", res.Feasible))
	}
	cfg.Cache.Put(cacheKey, res)
	return res, nil
}

// predictor is the dense state of one Predict call, built once by
// newPredictor: the graph's FU op types indexed in sorted order, the
// schedulers' inputs, and the scratch every schedule of the call reuses.
// Per-op-type slices (count, mods, cyc, busy, fus) follow ops' order.
type predictor struct {
	g    *dfg.Graph
	cfg  Config
	sets []lib.ModuleSet
	ops  []dfg.Op
	// count is the node count per op type; opOf the op type of each node,
	// -1 for nodes that need no FU.
	count, opOf []int
	// ws runs the list scheduler on list and the modulo scheduler on
	// modulo. modulo.Order is a topological order of the nodes, unless
	// orderErr names the cycle that prevents one.
	ws       sched.Workspace
	list     sched.TaskGraph
	modulo   sched.ModuloGraph
	orderErr error
	est      *alloc.Estimator
	// memBits is the graph's memory traffic, shared by every design of
	// the call.
	memBits map[string]int

	// The module set being swept: its index, each op type's module,
	// cycles and busy cycles (count*cycles), each node's duration and the
	// nodes' as-soon-as-possible starts.
	setIdx int
	mods   []lib.Module
	cyc    []int
	busy   []int
	dur    []int
	asap   []int

	// fus is the FU allocation being scheduled: the list and modulo
	// schedulers' capacities. keyBuf holds its uvarint encoding.
	fus    []int
	keyBuf []byte
	seen   map[designKey]struct{}
	// listed maps each allocation the list scheduler has run on under
	// the current module set to the schedule's makespan. The schedule
	// depends on nothing else, so an allocation met again is a design
	// already admitted.
	listed map[string]int
}

// designKey identifies a design point for deduplication, before the
// design is finished: its style, its module set's index in the
// enumeration, II, latency, and the FU counts in sorted op order (as
// uvarints).
type designKey struct {
	style            DesignStyle
	set, ii, latency int
	fus              string
}

func newPredictor(g *dfg.Graph, cfg Config) (*predictor, error) {
	counts := g.OpCounts()
	ops := make([]dfg.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("bad: partition %q has no operations", g.Name)
	}
	slices.Sort(ops)
	sets, err := cfg.Lib.EnumerateSets(ops)
	if err != nil {
		return nil, err
	}
	n, k := len(g.Nodes), len(ops)
	p := &predictor{
		g: g, cfg: cfg, sets: sets, ops: ops,
		count: make([]int, k), opOf: make([]int, n),
		est:  alloc.NewEstimator(g, ops),
		mods: make([]lib.Module, k), cyc: make([]int, k), busy: make([]int, k),
		dur: make([]int, n), asap: make([]int, n),
		fus:    make([]int, k),
		seen:   make(map[designKey]struct{}),
		listed: make(map[string]int),
	}
	for i, op := range ops {
		p.count[i] = counts[op]
	}
	p.list = sched.TaskGraph{Dur: p.dur, Succs: make([][]int, n), Demand: make([][]sched.Demand, n), Cap: p.fus}
	p.modulo = sched.ModuloGraph{Preds: make([][]int, n), Dur: p.dur, Res: p.opOf, Cap: p.fus}
	p.modulo.Order, p.orderErr = g.TopoOrder()
	demands := make([]sched.Demand, n)
	for id, node := range g.Nodes {
		p.opOf[id] = slices.Index(ops, node.Op)
		p.list.Succs[id] = g.Succs(id)
		p.modulo.Preds[id] = g.Preds(id)
		if r := p.opOf[id]; r >= 0 {
			demands[id] = sched.Demand{Res: r, Amount: 1}
			p.list.Demand[id] = demands[id : id+1]
		}
		if node.Op.IsMemory() {
			if p.memBits == nil {
				p.memBits = make(map[string]int)
			}
			p.memBits[node.Mem] += node.Width
		}
	}
	return p, nil
}

// canceled returns the wrapped context error once Config.Ctx is done.
func (p *predictor) canceled() error {
	if p.cfg.Ctx == nil {
		return nil
	}
	if err := p.cfg.Ctx.Err(); err != nil {
		return fmt.Errorf("bad: prediction of %q canceled: %w", p.g.Name, err)
	}
	return nil
}

// sweep generates every design point of every module set, deduplicates
// them, and finishes and admits each first occurrence.
func (p *predictor) sweep(sp *obs.Span) (Result, error) {
	cfg := p.cfg
	dpNS := cfg.Clocks.DatapathNS()
	res := Result{}
	for si, set := range p.sets {
		if err := p.canceled(); err != nil {
			return Result{}, err
		}
		setStart := res.Total
		if !p.useSet(si, set, dpNS) {
			if sp != nil {
				sp.Point("moduleset", obs.F("id", set.ID()), obs.F("skipped", "too-slow"))
			}
			continue // single-cycle style with a module slower than the cycle
		}
		if p.orderErr != nil {
			return Result{}, p.orderErr
		}
		minLat := p.criticalCycles()
		serial := 0
		for _, b := range p.busy {
			serial += b
		}
		serial = max(serial, 1)
		maxII := cfg.MaxII
		if maxII == 0 {
			if cfg.Perf.Bound > 0 {
				maxII = int(cfg.Perf.Bound / dpNS)
			} else {
				maxII = serial
			}
		}
		if maxII < 1 {
			continue
		}

		// Non-pipelined sweep: target latency L == II. Every schedule built
		// along the allocation-repair path is a legitimate design point at
		// its actual latency, so all are recorded; the paper's prediction
		// totals likewise count re-encountered designs (Fig. 7: 13411
		// encountered, 699 unique).
		if !cfg.Style.NoNonPipelined {
			for L := minLat; L <= min(serial, maxII); L++ {
				if err := p.canceled(); err != nil {
					return Result{}, err
				}
				p.nonPipelined(&res, L)
			}
		}
		// Pipelined sweep: every candidate initiation interval short of
		// the latency floor, past which pipelining brings no benefit.
		if !cfg.Style.NoPipelined {
			for ii := slices.Max(p.cyc); ii <= maxII && ii < minLat; ii++ {
				if err := p.canceled(); err != nil {
					return Result{}, err
				}
				p.pipelined(&res, ii)
			}
		}
		if sp != nil {
			sp.Point("moduleset", obs.F("id", set.ID()),
				obs.F("designs", res.Total-setStart))
		}
	}
	return res, nil
}

// useSet makes set (index si) the module set being swept, and reports
// whether it is usable at all.
func (p *predictor) useSet(si int, set lib.ModuleSet, dpNS float64) bool {
	if !opCycles(set, p.ops, p.cfg.Style, dpNS, p.cyc) {
		return false
	}
	p.setIdx = si
	clear(p.listed)
	for i, op := range p.ops {
		p.mods[i] = set[op]
		p.busy[i] = p.count[i] * p.cyc[i]
	}
	for id, r := range p.opOf {
		p.dur[id] = 0
		if r >= 0 {
			p.dur[id] = p.cyc[r]
		}
	}
	return true
}

// opCycles fills cyc with the execution time in datapath cycles of each
// op's module in set under the given style, and reports whether the set is
// usable at all.
func opCycles(set lib.ModuleSet, ops []dfg.Op, style Style, dpNS float64, cyc []int) bool {
	for i, op := range ops {
		m := set[op]
		if style.MultiCycle {
			cyc[i] = max(1, int(math.Ceil(m.Delay/dpNS)))
		} else {
			if m.Delay > dpNS {
				return false
			}
			cyc[i] = 1
		}
	}
	return true
}

// criticalCycles returns the unconstrained critical-path length in cycles
// of the current module set.
func (p *predictor) criticalCycles() int {
	lat := 0
	for _, id := range p.modulo.Order {
		s := 0
		for _, pr := range p.modulo.Preds[id] {
			s = max(s, p.asap[pr]+p.dur[pr])
		}
		p.asap[id] = s
		lat = max(lat, s+p.dur[id])
	}
	return lat
}

// minFUs sets the allocation to the theoretical minimum that could sustain
// the initiation interval ii: for each op type, ceil(busy cycles / ii).
func (p *predictor) minFUs(ii int) {
	for i, b := range p.busy {
		p.fus[i] = (b + ii - 1) / ii
	}
}

// maxRepair bounds the allocation-repair attempts per target latency or
// initiation interval.
const maxRepair = 6

// nonPipelined sweeps the allocation repairs towards one target latency,
// list-scheduling each allocation not yet scheduled under the current
// module set.
func (p *predictor) nonPipelined(res *Result, target int) {
	p.minFUs(target)
	for attempt := 0; ; attempt++ {
		latency, repeat := p.listed[string(p.fuKey())]
		if !repeat {
			s, err := p.ws.List(p.list)
			if err != nil {
				return
			}
			latency = s.Makespan
			p.listed[string(p.keyBuf)] = latency
			p.admit(res, NonPipelined, latency, latency, s.Start)
		}
		res.Total++
		if latency <= target || attempt >= maxRepair {
			return
		}
		p.bumpBottleneck()
	}
}

// pipelined sweeps the allocation repairs at one initiation interval. The
// allocation never falls below minFUs(ii), so the modulo scheduler's
// resource lower bound never rejects it and Modulo alone decides.
func (p *predictor) pipelined(res *Result, ii int) {
	p.minFUs(ii)
	for attempt := 0; ; attempt++ {
		if r, ok := p.ws.Modulo(p.modulo, ii); ok {
			res.Total++
			p.admit(res, Pipelined, ii, r.Latency, r.Start)
			return
		}
		if attempt >= maxRepair {
			return
		}
		p.bumpBottleneck()
	}
}

// bumpBottleneck adds one FU to the most contended operation type; ties go
// to the op type first in sorted order. Every count is at least 1, as
// minFUs leaves it.
func (p *predictor) bumpBottleneck() {
	worst, worstOp := -1.0, -1
	for i, cnt := range p.count {
		n := p.fus[i]
		if n >= cnt {
			continue // already fully parallel
		}
		if pressure := float64(cnt*p.cyc[i]) / float64(n); pressure > worst {
			worst, worstOp = pressure, i
		}
	}
	if worstOp >= 0 {
		p.fus[worstOp]++
	}
}

// admit books the design point of a schedule (start) of the current
// allocation: only the first point per designKey is finished, and it is
// kept unless level-1 pruning discards it.
func (p *predictor) admit(res *Result, style DesignStyle, ii, latency int, start []int) {
	b := p.fuKey()
	// The lookup's string(b) stays on the stack; only a new key is
	// copied into the map.
	if _, dup := p.seen[designKey{style, p.setIdx, ii, latency, string(b)}]; dup {
		return
	}
	p.seen[designKey{style, p.setIdx, ii, latency, string(b)}] = struct{}{}
	res.Unique++
	d := p.finish(style, ii, latency, start)
	if !p.cfg.KeepAll && !Feasible(d, p.cfg) {
		// Level-1 prune: discard immediately if clearly infeasible.
		p.cfg.Metrics.Inc("bad.pruned_level1")
		return
	}
	d.FUs = make(map[dfg.Op]int, len(p.ops))
	for i, op := range p.ops {
		d.FUs[op] = p.fus[i]
	}
	res.Designs = append(res.Designs, d)
}

// fuKey encodes the current allocation into keyBuf and returns it.
func (p *predictor) fuKey() []byte {
	b := p.keyBuf[:0]
	for _, n := range p.fus {
		b = binary.AppendUvarint(b, uint64(n))
	}
	p.keyBuf = b
	return b
}

// finish assembles the Design record of a schedule under the current
// module set and allocation, all but its FUs map.
func (p *predictor) finish(style DesignStyle, ii, latency int, start []int) Design {
	al := p.est.Estimate(p.dur, start, p.fus, ii)

	l := p.cfg.Lib
	var fuArea, fuPower float64
	maxShare := 1
	for i, n := range p.fus {
		fuArea += float64(n) * p.mods[i].Area
		fuPower += float64(n) * p.mods[i].Power
		if cnt := p.count[i]; n > 0 && (cnt+n-1)/n > maxShare {
			maxShare = (cnt + n - 1) / n
		}
	}
	regArea := float64(al.RegisterBits) * l.Register.Area
	muxArea := float64(al.Mux1Bit) * l.Mux.Area
	cellArea := fuArea + regArea + muxArea
	if p.cfg.Style.Testability {
		cellArea += scanAreaPerRegBit * float64(al.RegisterBits)
	}
	routing := wire.RoutingArea(cellArea, al.Nets)

	states := latency
	if style == Pipelined && ii < states {
		states = ii * sched.Stages(latency, ii) // controller tracks all stages
	}
	if states < 1 {
		states = 1
	}
	pla := ctrl.ForFSM(states, 0, al.Nets)
	plaArea := pla.Area()
	area := stats.Sum(stats.Exact(cellArea), routing, plaArea)

	// Clock overhead: register setup + mux tree + wiring + controller.
	overhead := stats.Sum(
		stats.Exact(l.Register.Delay),
		stats.Exact(float64(muxLevels(maxShare))*l.Mux.Delay),
		wire.Delay(area.ML),
		pla.Delay(),
	)
	if p.cfg.Style.Testability {
		overhead = overhead.Add(stats.Exact(scanClockOverhead))
	}

	power := fuPower + float64(al.RegisterBits)*l.Register.Power + float64(al.Mux1Bit)*l.Mux.Power
	return Design{
		Style:         style,
		ModuleSet:     p.sets[p.setIdx],
		II:            ii,
		Latency:       latency,
		Stages:        sched.Stages(latency, ii),
		RegBits:       al.RegisterBits,
		Mux1Bit:       al.Mux1Bit,
		Area:          area,
		ClockOverhead: overhead,
		Power:         stats.Spread(power, 0.10, 0.20),
		MemBits:       p.memBits,
	}
}

// Feasible applies the level-1 feasibility tests to a single design.
func Feasible(d Design, cfg Config) bool {
	if cfg.MaxArea > 0 {
		if !(stats.Constraint{Bound: cfg.MaxArea, MinProb: 1}).Satisfied(d.Area) {
			return false
		}
	}
	if cfg.Perf.Bound > 0 && !cfg.Perf.Satisfied(d.PerfNS(cfg.Clocks)) {
		return false
	}
	if cfg.Delay.Bound > 0 && !cfg.Delay.Satisfied(d.LatencyNS(cfg.Clocks)) {
		return false
	}
	return true
}

// muxLevels is the depth of the mux tree in front of an FU shared by
// maxShare (>= 1) operations: ceil(log2(maxShare)), at least one level.
func muxLevels(maxShare int) int {
	return max(1, bits.Len(uint(maxShare-1)))
}

// paretoFilter removes inferior designs: a design is inferior when another
// design is no worse on initiation interval, latency and most-likely area,
// and strictly better on at least one.
func paretoFilter(ds []Design) []Design {
	keep := make([]Design, 0, len(ds))
	for i, d := range ds {
		dominated := false
		for j, e := range ds {
			if i == j {
				continue
			}
			if e.II <= d.II && e.Latency <= d.Latency && e.Area.ML <= d.Area.ML &&
				(e.II < d.II || e.Latency < d.Latency || e.Area.ML < d.Area.ML) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, d)
		}
	}
	return keep
}

func sortDesigns(ds []Design) {
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].II != ds[j].II {
			return ds[i].II < ds[j].II
		}
		if ds[i].Latency != ds[j].Latency {
			return ds[i].Latency < ds[j].Latency
		}
		return ds[i].Area.ML < ds[j].Area.ML
	})
}
