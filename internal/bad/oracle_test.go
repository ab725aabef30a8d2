package bad

// Oracle: verbatim copies of Predict and every helper it reached before
// the predictor worked on dense per-call state, together with
// alloc.Estimate and the sched helpers that no oracle test of their own
// pins (CriticalCycles, since deleted from sched, MinFUs and Stages),
// renamed old… only where their names would clash inside this package.
// The oracle calls no sched function but the ListSchedule and
// PipelinedSchedule wrappers, which internal/sched/oracle_test.go pins.
// The tests below compare the live Predict against it, so any change of a
// design, of the designs' order, of the Total/Unique/Feasible counts or of
// an error shows up as a mismatch.
//
// Every library here has integer module areas and powers: with fractional
// ones, the oracle's map-order float sums differ from run to run.

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chop/internal/alloc"
	"chop/internal/ctrl"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/sched"
	"chop/internal/stats"
	"chop/internal/wire"
)

// ---- bad.Predict and its helpers, verbatim ----

// oldKey identifies a design point for deduplication.
func oldKey(d Design) string {
	ops := make([]string, 0, len(d.FUs))
	for op, n := range d.FUs {
		ops = append(ops, fmt.Sprintf("%s=%d", op, n))
	}
	sort.Strings(ops)
	return fmt.Sprintf("%s|%s|%d|%d|%v", d.Style, d.ModuleSet.ID(), d.II, d.Latency, ops)
}

// oldMaxRepair bounds the oracle's allocation-repair attempts per
// candidate. It is a literal of its own, not Predict's maxRepair, so the
// comparison checks the live bound instead of sharing it.
const oldMaxRepair = 6

// oldPredict enumerates and evaluates the implementation design space of one
// partition graph.
func oldPredict(g *dfg.Graph, cfg Config) (Result, error) {
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
		cycles, usable := oldOpCycles(set, cfg.Style, dpNS)
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
		minLat, err := oldCriticalCycles(prob)
		if err != nil {
			if ownSpan {
				sp.End(obs.F("error", err.Error()))
			}
			return Result{}, err
		}
		serial := oldSerialLatency(g, cycles)
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
				for _, d := range oldTryNonPipelined(g, set, cycles, L, cfg) {
					res.Total++
					oldAdmit(&res, seen, d, cfg)
				}
			}
		}
		// Pipelined sweep: every candidate initiation interval.
		if !cfg.Style.NoPipelined {
			minII := oldMaxOpCycles(g, cycles)
			for ii := minII; ii <= maxII; ii++ {
				if ii >= minLat {
					break // no pipelining benefit past the latency floor
				}
				d, ok := oldTryPipelined(g, set, cycles, ii, cfg)
				if !ok {
					continue
				}
				res.Total++
				oldAdmit(&res, seen, d, cfg)
			}
		}
		if sp != nil {
			sp.Point("moduleset", obs.F("id", set.ID()),
				obs.F("designs", res.Total-setStart))
		}
	}
	if !cfg.KeepAll {
		res.Designs = oldParetoFilter(res.Designs)
	}
	oldSortDesigns(res.Designs)
	res.Feasible = 0
	for _, d := range res.Designs {
		if oldFeasible(d, cfg) {
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

func oldAdmit(res *Result, seen map[string]bool, d Design, cfg Config) {
	k := oldKey(d)
	if seen[k] {
		return
	}
	seen[k] = true
	res.Unique++
	if !cfg.KeepAll {
		// Level-1 prune: discard immediately if clearly infeasible.
		if !oldFeasible(d, cfg) {
			if cfg.Metrics != nil {
				cfg.Metrics.Inc("bad.pruned_level1")
			}
			return
		}
	}
	res.Designs = append(res.Designs, d)
}

// oldFeasible applies the level-1 feasibility tests to a single design.
func oldFeasible(d Design, cfg Config) bool {
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

// oldOpCycles returns the per-op execution time in datapath cycles for the
// module set under the given style, and whether the set is usable at all.
func oldOpCycles(set lib.ModuleSet, style Style, dpNS float64) (map[dfg.Op]int, bool) {
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

func oldSerialLatency(g *dfg.Graph, cycles map[dfg.Op]int) int {
	total := 0
	for op, n := range g.OpCounts() {
		total += n * cycles[op]
	}
	if total < 1 {
		total = 1
	}
	return total
}

func oldMaxOpCycles(g *dfg.Graph, cycles map[dfg.Op]int) int {
	m := 1
	for op := range g.OpCounts() {
		if cycles[op] > m {
			m = cycles[op]
		}
	}
	return m
}

func oldTryNonPipelined(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, target int, cfg Config) []Design {
	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }}
	fus := oldMinFUs(prob, target)
	var out []Design
	for attempt := 0; ; attempt++ {
		prob.Limit = fus
		r, err := sched.ListSchedule(prob)
		if err != nil {
			return out
		}
		out = append(out, oldFinish(g, set, cycles, fus, r, r.Latency, NonPipelined, cfg))
		if r.Latency <= target || attempt >= oldMaxRepair {
			return out
		}
		fus = oldBumpBottleneck(g, cycles, fus)
	}
}

func oldTryPipelined(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, ii int, cfg Config) (Design, bool) {
	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }}
	fus := oldMinFUs(prob, ii)
	for attempt := 0; ; attempt++ {
		prob.Limit = fus
		r, ok, err := sched.PipelinedSchedule(prob, ii)
		if err != nil {
			return Design{}, false
		}
		if ok {
			return oldFinish(g, set, cycles, fus, r, ii, Pipelined, cfg), true
		}
		if attempt >= oldMaxRepair {
			return Design{}, false
		}
		fus = oldBumpBottleneck(g, cycles, fus)
	}
}

// oldBumpBottleneck adds one FU to the most contended operation type.
func oldBumpBottleneck(g *dfg.Graph, cycles map[dfg.Op]int, fus map[dfg.Op]int) map[dfg.Op]int {
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

// oldFinish assembles the full Design record from a schedule.
func oldFinish(g *dfg.Graph, set lib.ModuleSet, cycles map[dfg.Op]int, fus map[dfg.Op]int,
	r sched.Result, ii int, style DesignStyle, cfg Config) Design {

	prob := sched.Problem{G: g, Cycles: func(n dfg.Node) int { return cycles[n.Op] }, Limit: fus}
	al := oldEstimate(prob, r, fus, ii)

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
		states = ii * oldStages(r.Latency, ii) // controller tracks all stages
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
		stats.Exact(float64(oldMuxLevels(maxShare))*l.Mux.Delay),
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
		Stages:        oldStages(r.Latency, ii),
		RegBits:       al.RegisterBits,
		Mux1Bit:       al.Mux1Bit,
		Area:          area,
		ClockOverhead: overhead,
		Power:         stats.Spread(power, 0.10, 0.20),
		MemBits:       memBits,
	}
}

// oldMuxLevels is the depth of the mux tree in front of an FU shared by
// maxShare (>= 1) operations: ceil(log2(maxShare)), at least one level.
func oldMuxLevels(maxShare int) int {
	return max(1, bits.Len(uint(maxShare-1)))
}

// oldParetoFilter removes inferior designs: a design is inferior when another
// design is no worse on initiation interval, latency and most-likely area,
// and strictly better on at least one.
func oldParetoFilter(ds []Design) []Design {
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

func oldSortDesigns(ds []Design) {
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

// ---- alloc.Estimate, verbatim ----

// oldEstimate computes the allocation for a scheduled partition. fus is the
// functional-unit allocation used to produce the schedule; ii is the
// initiation interval in cycles (pass the schedule latency, or any value
// >= latency, for non-pipelined designs).
func oldEstimate(p sched.Problem, res sched.Result, fus map[dfg.Op]int, ii int) alloc.Alloc {
	g := p.G
	if ii < 1 {
		ii = 1
	}

	// ---- register bits: peak live bits over the folded schedule ----
	occupancy := make([]int, ii)
	addLife := func(from, to, width int) {
		if to < from {
			to = from
		}
		if to-from+1 >= ii {
			// Alive a full interval (or more): permanently resident.
			for s := 0; s < ii; s++ {
				occupancy[s] += width * ((to - from) / ii)
			}
			// remainder handled below by the partial span
		}
		span := (to - from) % ii
		for k := 0; k <= span; k++ {
			occupancy[(from+k)%ii] += width
		}
	}
	dur := func(id int) int {
		n := g.Nodes[id]
		if !n.Op.NeedsFU() {
			return 0
		}
		c := p.Cycles(n)
		if c < 1 {
			c = 1
		}
		return c
	}
	for id, n := range g.Nodes {
		if n.Op == dfg.OpOutput {
			continue
		}
		// Birth: when the value becomes available. Inputs are available at
		// cycle 0 (the paper assumes all partition inputs arrive before
		// execution starts); computed values at start+duration.
		birth := 0
		if n.Op.NeedsFU() {
			birth = res.Start[id] + dur(id)
		}
		// Death: the start cycle of the last consumer (the consumer latches
		// the operand when it fires). Values with no consumer (partition
		// outputs feeding OpOutput markers, handled by transfer buffers)
		// are held for one cycle.
		death := birth
		for _, su := range g.Succs(id) {
			s := res.Start[su]
			if g.Nodes[su].Op == dfg.OpOutput {
				s = birth // transfer buffering is accounted elsewhere
			}
			if s > death {
				death = s
			}
		}
		addLife(birth, death, n.Width)
	}
	regBits := 0
	for _, o := range occupancy {
		if o > regBits {
			regBits = o
		}
	}

	// ---- multiplexers and nets ----
	// FU input-port steering: the distinct producer values arriving at each
	// operand position of an op type spread across its allocated instances;
	// each instance's port selects among ~distinct/n sources, so the type
	// needs (distinct - n) two-way muxes per bit at that position. This
	// distinct-source model tracks actual left-edge/first-fit bindings far
	// better than a naive sharers-per-FU count (package rtl's accuracy test
	// compares the two directly).
	counts := g.OpCounts()
	mux := 0
	nets := 0
	width := oldDatapathWidth(g)
	totalFUs := 0
	for op, cnt := range counts {
		n := fus[op]
		if n <= 0 {
			n = cnt // unconstrained: one FU per op, no sharing
		}
		if n > cnt {
			n = cnt
		}
		totalFUs += n
		ports := oldInputPorts(op)
		for pos := 0; pos < ports; pos++ {
			distinct := make(map[int]bool)
			for _, nd := range g.Nodes {
				if nd.Op != op {
					continue
				}
				preds := g.Preds(nd.ID)
				if pos < len(preds) {
					distinct[preds[pos]] = true
				}
			}
			if d := len(distinct); d > n {
				mux += (d - n) * width
			}
		}
		nets += n * (ports + 1) // each FU: input nets + one output net
	}
	// Register-file steering: shared registers need an input mux per extra
	// writer. The extra-writer total is bounded both by the value surplus
	// (values - regs) and by the writer diversity a register can see (every
	// FU plus the external input path).
	values := 0
	for _, n := range g.Nodes {
		if n.Op.NeedsFU() || n.Op == dfg.OpInput {
			values++
		}
	}
	regs := 0
	if width > 0 {
		regs = (regBits + width - 1) / width
	}
	if regs > 0 && values > regs {
		extra := values - regs
		if cap := regs * totalFUs; extra > cap {
			extra = cap
		}
		mux += extra * width
	}
	nets += len(g.Edges) + regs
	return alloc.Alloc{RegisterBits: regBits, Mux1Bit: mux, Nets: nets}
}

// oldInputPorts returns the operand count of an operation type.
func oldInputPorts(op dfg.Op) int {
	switch op {
	case dfg.OpAdd, dfg.OpSub, dfg.OpMul, dfg.OpDiv, dfg.OpCmp:
		return 2
	default:
		return 1
	}
}

// oldDatapathWidth returns the dominant value width of the graph (the maximum,
// which for the paper's designs is the uniform 16-bit width).
func oldDatapathWidth(g *dfg.Graph) int {
	w := 0
	for _, n := range g.Nodes {
		if n.Width > w {
			w = n.Width
		}
	}
	return w
}

// ---- sched helpers without an oracle test of their own, verbatim ----

func oldCyclesOf(p sched.Problem, id int) int {
	n := p.G.Nodes[id]
	if !n.Op.NeedsFU() {
		return 0
	}
	c := p.Cycles(n)
	if c < 1 {
		c = 1
	}
	return c
}

// oldASAP returns the as-soon-as-possible start cycle of every node and the
// resulting unconstrained latency.
func oldASAP(p sched.Problem) (starts []int, latency int, err error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	starts = make([]int, len(p.G.Nodes))
	for _, id := range order {
		s := 0
		for _, pr := range p.G.Preds(id) {
			if f := starts[pr] + oldCyclesOf(p, pr); f > s {
				s = f
			}
		}
		starts[id] = s
		if f := s + oldCyclesOf(p, id); f > latency {
			latency = f
		}
	}
	return starts, latency, nil
}

// oldCriticalCycles returns the unconstrained critical-path length in cycles.
func oldCriticalCycles(p sched.Problem) (int, error) {
	_, lat, err := oldASAP(p)
	return lat, err
}

// oldMinFUs returns the theoretical minimum functional-unit allocation that
// could sustain the given initiation interval: for each op type,
// ceil(total busy cycles / II).
func oldMinFUs(p sched.Problem, ii int) map[dfg.Op]int {
	busy := make(map[dfg.Op]int)
	for id, n := range p.G.Nodes {
		if n.Op.NeedsFU() {
			busy[n.Op] += oldCyclesOf(p, id)
		}
	}
	out := make(map[dfg.Op]int, len(busy))
	for op, b := range busy {
		out[op] = (b + ii - 1) / ii
	}
	return out
}

// oldStages returns the number of pipeline stages of a modulo schedule:
// ceil(latency / ii). For non-pipelined schedules pass ii = latency to get 1.
func oldStages(latency, ii int) int {
	if ii <= 0 {
		return 0
	}
	return (latency + ii - 1) / ii
}

// ---- comparisons ----

// oracleCase is one Predict input.
type oracleCase struct {
	name string
	g    *dfg.Graph
	cfg  Config
}

// comparePredict runs the live Predict and the oracle on c and fails on
// any difference in designs (order included), counts or error text.
func comparePredict(t *testing.T, c oracleCase) {
	t.Helper()
	want, werr := oldPredict(c.g, c.cfg)
	got, gerr := Predict(c.g, c.cfg)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: error %v, oracle %v", c.name, gerr, werr)
	}
	if got.Total != want.Total || got.Unique != want.Unique || got.Feasible != want.Feasible {
		t.Fatalf("%s: total/unique/feasible %d/%d/%d, oracle %d/%d/%d", c.name,
			got.Total, got.Unique, got.Feasible, want.Total, want.Unique, want.Feasible)
	}
	if !reflect.DeepEqual(got.Designs, want.Designs) {
		if len(got.Designs) != len(want.Designs) {
			t.Fatalf("%s: %d designs, oracle %d", c.name, len(got.Designs), len(want.Designs))
		}
		for i := range got.Designs {
			if !reflect.DeepEqual(got.Designs[i], want.Designs[i]) {
				t.Fatalf("%s: design %d\n got %+v\nwant %+v", c.name, i, got.Designs[i], want.Designs[i])
			}
		}
	}
}

// oracleVariants are the configurations every graph is predicted under:
// the paper's two experiment styles with and without level-1 pruning, one
// design style at a time, the scan-design extension, a sweep capped by
// MaxII, and the uncapped sweep to the serial latency (no Perf bound, no
// MaxII).
func oracleVariants(l *lib.Library) []oracleCase {
	base := []oracleCase{{name: "exp1", cfg: exp1Config()}, {name: "exp2", cfg: exp2Config()}}
	var out []oracleCase
	for _, b := range base {
		b.cfg.Lib = l
		v := func(suffix string, edit func(*Config)) {
			c := b
			c.name = b.name + suffix
			edit(&c.cfg)
			out = append(out, c)
		}
		v("", func(*Config) {})
		v("/keepall", func(c *Config) { c.KeepAll = true })
		v("/nopipe", func(c *Config) { c.Style.NoPipelined = true })
		v("/nononpipe", func(c *Config) { c.Style.NoNonPipelined = true })
		v("/scan", func(c *Config) { c.Style.Testability = true })
		v("/maxii", func(c *Config) { c.MaxII = 12; c.Perf = stats.Constraint{} })
		v("/uncapped", func(c *Config) { c.MaxII = 0; c.Perf = stats.Constraint{} })
	}
	return out
}

// experimentPartitions are the AR filter's partition graphs of the paper's
// Tables 3-6 and Figures 7-8: one to three level partitions.
func experimentPartitions() []*dfg.Graph {
	ar := dfg.ARLatticeFilter(16)
	var out []*dfg.Graph
	for n := 1; n <= 3; n++ {
		for i, set := range dfg.LevelPartitions(ar, n) {
			sub, _ := ar.PartitionGraph(fmt.Sprintf("%s/%d/P%d", ar.Name, n, i+1), set)
			out = append(out, sub)
		}
	}
	return out
}

func TestPredictMatchesOracleExperimentPartitions(t *testing.T) {
	for _, g := range experimentPartitions() {
		for _, l := range []*lib.Library{lib.Table1Library(), lib.ExtendedLibrary()} {
			for _, c := range oracleVariants(l) {
				c.name = g.Name + "/" + l.Name + "/" + c.name
				c.g = g
				comparePredict(t, c)
			}
		}
	}
}

func TestPredictMatchesOracleBenchmarkGraphs(t *testing.T) {
	graphs := []*dfg.Graph{
		dfg.ARLatticeFilter(16), dfg.EllipticWaveFilter(16), dfg.FIR(16, 16), dfg.DiffEq(16),
	}
	for _, g := range graphs {
		for _, c := range oracleVariants(lib.ExtendedLibrary()) {
			c.name = g.Name + "/" + c.name
			c.g = g
			comparePredict(t, c)
		}
	}
}

// TestPredictMatchesOracleRandomDAGs draws seeded random graphs, one
// variant each, with random clocks and bounds, so the single-cycle skip
// and multi-cycle durations of several lengths vary.
func TestPredictMatchesOracleRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	l := lib.ExtendedLibrary()
	variants := oracleVariants(l)
	for seed := int64(0); seed < 150; seed++ {
		g := dfg.RandomDAG(seed, 1+rng.Intn(4), 1+rng.Intn(24), 16)
		c := variants[rng.Intn(len(variants))]
		c.g = g
		switch rng.Intn(3) {
		case 0:
			c.cfg.Clocks.DatapathMult = 1 + rng.Intn(10)
		case 1:
			c.cfg.MaxArea = float64(20000 + rng.Intn(200000))
		}
		c.name = fmt.Sprintf("%s/%s/dp%d/area%.0f", g.Name, c.name,
			c.cfg.Clocks.DatapathMult, c.cfg.MaxArea)
		comparePredict(t, c)
	}
}

// TestPredictMatchesOracleErrors: the error paths return the oracle's
// error text.
func TestPredictMatchesOracleErrors(t *testing.T) {
	cyc := dfg.New("cycle")
	a := cyc.AddNode("a", dfg.OpAdd, 16)
	b := cyc.AddNode("b", dfg.OpAdd, 16)
	cyc.MustConnect(a, b)
	cyc.MustConnect(b, a)
	div := dfg.New("div")
	in := div.AddNode("in", dfg.OpInput, 16)
	div.MustConnect(in, div.AddNode("d", dfg.OpDiv, 16))
	badClocks := exp1Config()
	badClocks.Clocks.MainNS = 0
	slow := exp1Config()
	slow.Clocks.DatapathMult = 1 // every multiplier is slower than one cycle
	cases := []oracleCase{
		{name: "nil-lib", g: dfg.ARLatticeFilter(16), cfg: Config{}},
		{name: "bad-clocks", g: dfg.ARLatticeFilter(16), cfg: badClocks},
		{name: "empty", g: dfg.New("empty"), cfg: exp1Config()},
		{name: "no-module", g: div, cfg: exp1Config()},
		{name: "cycle", g: cyc, cfg: exp1Config()},
		{name: "all-sets-too-slow", g: dfg.ARLatticeFilter(16), cfg: slow},
		{name: "bad-lib", g: dfg.ARLatticeFilter(16), cfg: Config{Lib: &lib.Library{Name: "x"}, Clocks: exp1Clocks()}},
	}
	for _, c := range cases {
		comparePredict(t, c)
	}
}
