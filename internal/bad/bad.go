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
	"fmt"
	"math"
	"math/bits"
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
	// MaxRepair bounds the allocation-repair attempts per candidate
	// initiation interval (default 6).
	MaxRepair int
	// ForceDirected selects force-directed scheduling (Paulin & Knight,
	// paper reference [9]) for the non-pipelined design-style sweep in
	// place of the default minimum-allocation list scheduling with repair.
	ForceDirected bool
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

// IIMainCycles returns the initiation interval expressed in main-clock
// cycles, the unit of the paper's tables.
func (d Design) IIMainCycles(c Clocks) int { return d.II * c.DatapathMult }

// LatencyMainCycles returns the compute latency in main-clock cycles.
func (d Design) LatencyMainCycles(c Clocks) int { return d.Latency * c.DatapathMult }

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

// key identifies a design point for deduplication.
func (d Design) key() string {
	ops := make([]string, 0, len(d.FUs))
	for op, n := range d.FUs {
		ops = append(ops, fmt.Sprintf("%s=%d", op, n))
	}
	sort.Strings(ops)
	return fmt.Sprintf("%s|%s|%d|%d|%v", d.Style, d.ModuleSet.ID(), d.II, d.Latency, ops)
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
	if cfg.MaxRepair <= 0 {
		cfg.MaxRepair = 6
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
	var ops []dfg.Op
	for op := range g.OpCounts() {
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return Result{}, fmt.Errorf("bad: partition %q has no operations", g.Name)
	}
	sets, err := cfg.Lib.EnumerateSets(ops)
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

	dpNS := cfg.Clocks.DatapathNS()
	res := Result{}
	seen := make(map[string]bool)
	for _, set := range sets {
		setStart := res.Total
		cycles, usable := opCycles(set, cfg.Style, dpNS)
		if !usable {
			if sp != nil {
				sp.Point("moduleset", obs.F("id", set.ID()), obs.F("skipped", "too-slow"))
			}
			continue // single-cycle style with a module slower than the cycle
		}
		prob := sched.Problem{
			G:      g,
			Cycles: func(n dfg.Node) int { return cycles[n.Op] },
		}
		minLat, err := sched.CriticalCycles(prob)
		if err != nil {
			if ownSpan {
				sp.End(obs.F("error", err.Error()))
			}
			return Result{}, err
		}
		serial := serialLatency(g, cycles)
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
			hi := serial
			if hi > maxII {
				hi = maxII
			}
			for L := minLat; L <= hi; L++ {
				var ds []Design
				if cfg.ForceDirected {
					ds = tryForceDirected(g, set, cycles, L, cfg)
				} else {
					ds = tryNonPipelined(g, set, cycles, L, cfg)
				}
				for _, d := range ds {
					res.Total++
					admit(&res, seen, d, cfg)
				}
			}
		}
		// Pipelined sweep: every candidate initiation interval.
		if !cfg.Style.NoPipelined {
			minII := maxOpCycles(g, cycles)
			for ii := minII; ii <= maxII; ii++ {
				if ii >= minLat {
					break // no pipelining benefit past the latency floor
				}
				d, ok := tryPipelined(g, set, cycles, ii, cfg)
				if !ok {
					continue
				}
				res.Total++
				admit(&res, seen, d, cfg)
			}
		}
		if sp != nil {
			sp.Point("moduleset", obs.F("id", set.ID()),
				obs.F("designs", res.Total-setStart))
		}
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

func admit(res *Result, seen map[string]bool, d Design, cfg Config) {
	k := d.key()
	if seen[k] {
		return
	}
	seen[k] = true
	res.Unique++
	if !cfg.KeepAll {
		// Level-1 prune: discard immediately if clearly infeasible.
		if !Feasible(d, cfg) {
			if cfg.Metrics != nil {
				cfg.Metrics.Inc("bad.pruned_level1")
			}
			return
		}
	}
	res.Designs = append(res.Designs, d)
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

// opCycles returns the per-op execution time in datapath cycles for the
// module set under the given style, and whether the set is usable at all.
func opCycles(set lib.ModuleSet, style Style, dpNS float64) (map[dfg.Op]int, bool) {
	cycles := make(map[dfg.Op]int, len(set))
	for op, m := range set {
		if style.MultiCycle {
			cycles[op] = int(math.Ceil(m.Delay / dpNS))
			if cycles[op] < 1 {
				cycles[op] = 1
			}
		} else {
			if m.Delay > dpNS {
				return nil, false
			}
			cycles[op] = 1
		}
	}
	return cycles, true
}

func serialLatency(g *dfg.Graph, cycles map[dfg.Op]int) int {
	total := 0
	for op, n := range g.OpCounts() {
		total += n * cycles[op]
	}
	if total < 1 {
		total = 1
	}
	return total
}

func maxOpCycles(g *dfg.Graph, cycles map[dfg.Op]int) int {
	m := 1
	for op := range g.OpCounts() {
		if cycles[op] > m {
			m = cycles[op]
		}
	}
	return m
}

func tryNonPipelined(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, target int, cfg Config) []Design {
	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }}
	fus := sched.MinFUs(prob, target)
	var out []Design
	for attempt := 0; ; attempt++ {
		prob.Limit = fus
		r, err := sched.ListSchedule(prob)
		if err != nil {
			return out
		}
		out = append(out, finish(g, set, cycles, fus, r, r.Latency, NonPipelined, cfg))
		if r.Latency <= target || attempt >= cfg.MaxRepair {
			return out
		}
		fus = bumpBottleneck(g, cycles, fus)
	}
}

// tryForceDirected builds the non-pipelined design for a target latency
// with force-directed scheduling: the schedule determines the allocation
// (peak concurrency) rather than the other way around.
func tryForceDirected(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, target int, cfg Config) []Design {
	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }}
	r, fus, ok, err := sched.ForceDirected(prob, target)
	if err != nil || !ok {
		return nil
	}
	return []Design{finish(g, set, cycles, fus, r, r.Latency, NonPipelined, cfg)}
}

func tryPipelined(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, ii int, cfg Config) (Design, bool) {
	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }}
	fus := sched.MinFUs(prob, ii)
	for attempt := 0; ; attempt++ {
		prob.Limit = fus
		r, ok, err := sched.PipelinedSchedule(prob, ii)
		if err != nil {
			return Design{}, false
		}
		if ok {
			return finish(g, set, cycles, fus, r, ii, Pipelined, cfg), true
		}
		if attempt >= cfg.MaxRepair {
			return Design{}, false
		}
		fus = bumpBottleneck(g, cycles, fus)
	}
}

// bumpBottleneck adds one FU to the most contended operation type.
func bumpBottleneck(g *dfg.Graph, cycles map[dfg.Op]int, fus map[dfg.Op]int) map[dfg.Op]int {
	out := make(map[dfg.Op]int, len(fus))
	for op, n := range fus {
		out[op] = n
	}
	counts := g.OpCounts()
	ops := make([]dfg.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	worstOp := dfg.Op("")
	worst := -1.0
	for _, op := range ops {
		cnt := counts[op]
		n := out[op]
		if n == 0 {
			n = 1
			out[op] = 1
		}
		if n >= cnt {
			continue // already fully parallel
		}
		pressure := float64(cnt*cycles[op]) / float64(n)
		if pressure > worst {
			worst = pressure
			worstOp = op
		}
	}
	if worstOp != "" {
		out[worstOp]++
	}
	return out
}

// finish assembles the full Design record from a schedule.
func finish(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, fus map[dfg.Op]int,
	r sched.Result, ii int, style DesignStyle, cfg Config) Design {

	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }, Limit: fus}
	al := alloc.Estimate(prob, r, fus, ii)

	l := cfg.Lib
	var fuArea, fuPower float64
	maxShare := 1
	for op, n := range fus {
		m, ok := set[op]
		if !ok {
			continue
		}
		fuArea += float64(n) * m.Area
		fuPower += float64(n) * m.Power
		if cnt := g.OpCounts()[op]; n > 0 && (cnt+n-1)/n > maxShare {
			maxShare = (cnt + n - 1) / n
		}
	}
	regArea := float64(al.RegisterBits) * l.Register.Area
	muxArea := float64(al.Mux1Bit) * l.Mux.Area
	cellArea := fuArea + regArea + muxArea
	if cfg.Style.Testability {
		cellArea += scanAreaPerRegBit * float64(al.RegisterBits)
	}
	routing := wire.RoutingArea(cellArea, al.Nets)

	states := r.Latency
	if style == Pipelined && ii < states {
		states = ii * sched.Stages(r.Latency, ii) // controller tracks all stages
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
	if cfg.Style.Testability {
		overhead = overhead.Add(stats.Exact(scanClockOverhead))
	}

	power := fuPower + float64(al.RegisterBits)*l.Register.Power + float64(al.Mux1Bit)*l.Mux.Power
	memBits := make(map[string]int)
	for _, n := range g.Nodes {
		if n.Op.IsMemory() {
			memBits[n.Mem] += n.Width
		}
	}
	if len(memBits) == 0 {
		memBits = nil
	}
	return Design{
		Style:         style,
		ModuleSet:     set,
		FUs:           fus,
		II:            ii,
		Latency:       r.Latency,
		Stages:        sched.Stages(r.Latency, ii),
		RegBits:       al.RegisterBits,
		Mux1Bit:       al.Mux1Bit,
		Area:          area,
		ClockOverhead: overhead,
		Power:         stats.Spread(power, 0.10, 0.20),
		MemBits:       memBits,
	}
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
