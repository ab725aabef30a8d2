package core

import (
	"fmt"
	"slices"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/sched"
	"chop/internal/stats"
	"chop/internal/xfer"
)

// Reason classifies why an integration was rejected: the machine-readable
// companion of GlobalDesign.Reason, driving the rejection histograms of
// the observability layer and `chop explain`. ReasonNone marks feasible
// designs.
type Reason int

// Rejection reasons, in the order the feasibility checks run.
const (
	ReasonNone         Reason = iota
	ReasonRateMismatch        // pipelined data rate differs from the system interval
	ReasonNoPins              // a transfer has no pins available at all
	ReasonDataClash           // a transfer outlasts the initiation interval (paper 2.5)
	ReasonPinBandwidth        // steady-state pin-cycles exceed a chip's budget
	ReasonMemBandwidth        // a memory block's bandwidth is exceeded
	ReasonSchedule            // urgency scheduling failed
	ReasonPins                // a chip needs more pins than its package has
	ReasonArea                // a chip's area exceeds the usable package area
	ReasonPerf                // system initiation interval violates the Perf bound
	ReasonDelay               // system delay violates the Delay bound
	ReasonPower               // system power violates the Power bound
	numReasons                // sizes per-reason tables
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "ok"
	case ReasonRateMismatch:
		return "rate-mismatch"
	case ReasonNoPins:
		return "no-pins"
	case ReasonDataClash:
		return "data-clash"
	case ReasonPinBandwidth:
		return "pin-bandwidth"
	case ReasonMemBandwidth:
		return "mem-bandwidth"
	case ReasonSchedule:
		return "schedule"
	case ReasonPins:
		return "pins"
	case ReasonArea:
		return "area"
	case ReasonPerf:
		return "perf"
	case ReasonDelay:
		return "delay"
	case ReasonPower:
		return "power"
	}
	return fmt.Sprintf("Reason(%d)", int(r))
}

// GlobalDesign is one integrated implementation of the whole partitioning:
// one predicted design per partition plus the predicted data-transfer
// modules, evaluated against the system constraints.
type GlobalDesign struct {
	// Choice holds the selected predicted design of each partition.
	Choice []bad.Design
	// IIMain is the system initiation interval l and DelayMain the system
	// delay, both in main-clock cycles (the units of paper Tables 4/6).
	IIMain, DelayMain int
	// Clock is the adjusted main-clock period in ns (the "Clock Cycle"
	// column).
	Clock stats.Triplet
	// PerfNS and DelayNS are the initiation interval and system delay in
	// nanoseconds under the adjusted clock.
	PerfNS, DelayNS stats.Triplet
	// ChipArea is the predicted total area per chip (partitions + transfer
	// modules + on-chip memory).
	ChipArea []stats.Triplet
	// ChipPins is the number of used signal pins per chip.
	ChipPins []int
	// Modules are the predicted data-transfer modules, one per transfer
	// task (instantiated on every involved chip).
	Modules []xfer.Module
	// Power is the total system power estimate in mW (extension).
	Power stats.Triplet
	// Feasible reports whether every constraint passed; Reason names the
	// first violated check otherwise. The text is formatted from the check's
	// code and operands only in a design that escapes the search: Best's
	// designs (always feasible) and DebugIntegrator.Eval's result.
	Feasible bool
	Reason   string
	// ReasonCode classifies the violated check and ReasonChip attributes
	// it to a 0-based chip index for chip-specific reasons (area, pins,
	// pin bandwidth); ReasonChip is -1 when the rejection is not tied to
	// one chip (or the design is feasible).
	ReasonCode Reason
	ReasonChip int
	// AreaViolations lists the chips whose area constraint failed; the
	// iterative heuristic serializes partitions on exactly these chips
	// (paper Fig. 5).
	AreaViolations []int
	// Schedule is the urgency-scheduled task timeline (partitions first,
	// then transfer tasks), in main-clock cycles.
	Schedule []TaskSpan

	// why holds the operands Reason is formatted from.
	why rejection
	// picks points at the selected design of each partition, in the
	// prediction lists, while the design lives in trial scratch; own copies
	// them into Choice.
	picks []*bad.Design
}

// rejection is the operands of a failed check: the transfer or memory block
// it names, and its integer and real values. integrateBus records them, and
// own formats them into Reason, so a rejection that never escapes formats
// nothing.
type rejection struct {
	subject string
	n       [2]int
	f       [2]float64
	err     error
}

// reasonText formats g's rejection.
func (g *GlobalDesign) reasonText() string {
	w, chip, l := g.why, g.ReasonChip+1, g.IIMain
	switch g.ReasonCode {
	case ReasonRateMismatch:
		return fmt.Sprintf("partition %d data rate mismatch (II %d vs system %d)", w.n[0]+1, w.n[1], l)
	case ReasonNoPins:
		return fmt.Sprintf("transfer %s has no pins available", w.subject)
	case ReasonDataClash:
		return fmt.Sprintf("transfer %s takes %d cycles, exceeding interval %d (data clash)", w.subject, w.n[0], l)
	case ReasonPinBandwidth:
		return fmt.Sprintf("chip %d pin bandwidth exceeded (%d pin-cycles > %d x %d)", chip, w.n[0], w.n[1], l)
	case ReasonMemBandwidth:
		return fmt.Sprintf("memory %s bandwidth exceeded (%d bits per interval > %d)", w.subject, w.n[0], w.n[1])
	case ReasonSchedule:
		return fmt.Sprintf("task scheduling failed: %v", w.err)
	case ReasonPins:
		return fmt.Sprintf("chip %d needs %d pins (package has %d)", chip, w.n[0], w.n[1])
	case ReasonArea:
		return fmt.Sprintf("chip %d area %.0f exceeds usable %.0f", chip, w.f[0], w.f[1])
	case ReasonPerf:
		return fmt.Sprintf("performance %.0f ns violates bound %.0f", w.f[0], w.f[1])
	case ReasonDelay:
		return fmt.Sprintf("system delay %.0f ns violates bound %.0f", w.f[0], w.f[1])
	case ReasonPower:
		return fmt.Sprintf("power %.0f mW violates bound %.0f", w.f[0], w.f[1])
	}
	return ""
}

// own returns a copy of g that shares no memory with the trial scratch g
// points into, with its Reason formatted and Choice filled from the
// designs picks points at, the one place the search copies a Choice out.
// The spans' chip lists share one backing array, and a nil list stays
// nil. An empty AreaViolations becomes nil: a design without violations
// carries none.
func (g *GlobalDesign) own() GlobalDesign {
	o := *g
	o.Choice = make([]bad.Design, len(g.picks))
	for i, d := range g.picks {
		o.Choice[i] = *d
	}
	o.picks = nil
	o.ChipArea = slices.Clone(g.ChipArea)
	o.ChipPins = slices.Clone(g.ChipPins)
	o.Modules = slices.Clone(g.Modules)
	o.AreaViolations = nil
	if len(g.AreaViolations) > 0 {
		o.AreaViolations = slices.Clone(g.AreaViolations)
	}
	o.Schedule = slices.Clone(g.Schedule)
	n := 0
	for _, s := range g.Schedule {
		n += len(s.Chips)
	}
	chips := make([]int, 0, n)
	for i, s := range o.Schedule {
		if s.Chips != nil {
			k := len(chips)
			chips = append(chips, s.Chips...)
			o.Schedule[i].Chips = chips[k:len(chips):len(chips)]
		}
	}
	o.Reason = g.reasonText()
	return o
}

// TaskSpan is one scheduled task in a global design's timeline.
type TaskSpan struct {
	Name  string
	Start int
	Dur   int
	// Chips lists the chips the task occupies pins on (empty for
	// partition executions).
	Chips []int
}

// TotalArea returns the most-likely total silicon area across all chips.
func (g GlobalDesign) TotalArea() float64 {
	var a float64
	for _, c := range g.ChipArea {
		a += c.ML
	}
	return a
}

// integrator caches the choice-independent parts of system integration for
// one partitioning: transfer tasks and their chips, per-chip pin budgets,
// memory traffic and area, and the static parts of the urgency task graph.
type integrator struct {
	p   *Partitioning
	cfg Config
	// tasks are the inter-chip data-transfer tasks, and xferChips[i] the
	// chips task i involves (Task.Chips).
	tasks     []xfer.Task
	xferChips [][]int
	// budget is each chip's pins available for transfer payload; ctrlPins
	// and memPins are its reserved control and off-chip memory pins.
	budget, ctrlPins, memPins []int
	// memTraffic lists the accessed memory blocks in block order.
	memTraffic []memTraffic
	// memArea is each chip's on-chip memory area, and maxPad the largest
	// pad delay of any chip.
	memArea []float64
	maxPad  float64

	// The urgency task graph: the partitions (P1, P2, ...), then the
	// transfers. A partition precedes its outgoing transfers and a
	// transfer its destination partition. The resources are the chips'
	// pin budgets (0..C-1), then the memory blocks' ports; a partition
	// holds one port of every block it accesses, and a transfer its bus
	// pins on every chip it involves. Only durations and transfer pins
	// vary by trial.
	names    []string
	succs    [][]int
	caps     []int
	memPorts [][]sched.Demand // per partition
	xferPins int              // sum of len(xferChips[i])
}

// memTraffic is one memory block's traffic summed over all partitions
// (bits per iteration), next to the bits it moves per main-clock cycle.
type memTraffic struct {
	name           string
	bits, perCycle int
}

func newIntegrator(p *Partitioning, cfg Config) (*integrator, error) {
	tasks, err := xfer.BuildTasks(p.Graph, p.Assignment(), p.PartChip)
	if err != nil {
		return nil, err
	}
	nC := len(p.Chips.Chips)
	it := &integrator{
		p: p, cfg: cfg, tasks: tasks,
		budget:   make([]int, nC),
		ctrlPins: make([]int, nC),
		memPins:  make([]int, nC),
		memArea:  make([]float64, nC),
	}
	// Memory traffic per partition, from the subgraphs (design-independent).
	partMemBits := make([]map[string]int, len(p.Parts))
	for pi, sub := range p.Subgraphs() {
		m := make(map[string]int)
		for _, n := range sub.Nodes {
			if n.Op.IsMemory() {
				m[n.Mem] += n.Width
			}
		}
		partMemBits[pi] = m
	}
	// Reserved control pins per chip: per transfer task touching the chip,
	// plus the unshared pins of every off-chip memory path.
	for _, t := range tasks {
		chips := t.Chips()
		it.xferChips = append(it.xferChips, chips)
		it.xferPins += len(chips)
		for _, c := range chips {
			it.ctrlPins[c] += xfer.ControlPinsPerTask
		}
	}
	for pi, bits := range partMemBits {
		ci := p.PartChip[pi]
		for name := range bits {
			if p.Mem.OnChip(name, ci) {
				continue
			}
			blk, ok := p.Mem.Block(name)
			if !ok {
				return nil, fmt.Errorf("core: partition %d accesses unknown memory %q", pi+1, name)
			}
			it.memPins[ci] += blk.DataPins()
		}
	}
	for ci, ch := range p.Chips.Chips {
		it.budget[ci] = max(ch.DataPins()-it.ctrlPins[ci]-it.memPins[ci], 0)
		it.caps = append(it.caps, it.budget[ci])
		it.memArea[ci] = p.Mem.AreaOn(ci)
		it.maxPad = max(it.maxPad, ch.Pkg.PadDelay)
	}
	for _, blk := range p.Mem.Blocks {
		bits := 0
		for _, m := range partMemBits {
			bits += m[blk.Name]
		}
		if bits > 0 {
			it.memTraffic = append(it.memTraffic,
				memTraffic{name: blk.Name, bits: bits, perCycle: blk.BandwidthPerCycle(cfg.Clocks.MainNS)})
		}
	}
	nP := len(p.Parts)
	it.names = make([]string, nP+len(tasks))
	it.succs = make([][]int, nP+len(tasks))
	it.memPorts = make([][]sched.Demand, nP)
	for pi := range p.Parts {
		it.names[pi] = fmt.Sprintf("P%d", pi+1)
		for bi, blk := range p.Mem.Blocks {
			if _, ok := partMemBits[pi][blk.Name]; ok {
				it.memPorts[pi] = append(it.memPorts[pi], sched.Demand{Res: nC + bi, Amount: 1})
			}
		}
	}
	for _, blk := range p.Mem.Blocks {
		it.caps = append(it.caps, blk.Ports)
	}
	for i, t := range tasks {
		it.names[nP+i] = t.Name
		if t.FromPart != xfer.External {
			it.succs[t.FromPart] = append(it.succs[t.FromPart], nP+i)
		}
		if t.ToPart != xfer.External {
			it.succs[nP+i] = append(it.succs[nP+i], t.ToPart)
		}
	}
	return it, nil
}

// trialScratch is one worker's reusable trial memory: the combination under
// evaluation, as design indices and as pointers into the prediction lists
// (the scratch holds no design by value), the iterative heuristic's
// serialization candidates, and one buffer set per bus width, because
// integrate keeps the wide-bus design while it tries the narrow bus and may
// return either. A design integrate returns points into the scratch until
// its next trial; own copies it out.
type trialScratch struct {
	idx    []int
	choice []*bad.Design
	q      []int
	bus    [2]busScratch
}

// busScratch is one integrateBus call's memory: the design it returns, the
// backing arrays of that design's slices, its working buffers, and the
// outcome of the last timing key it integrated.
type busScratch struct {
	g GlobalDesign

	modules        []xfer.Module
	chipArea       []stats.Triplet
	modArea        []stats.Triplet // transfer-module area per chip
	chipPins       []int
	schedule       []TaskSpan // names and transfer chips set once
	areaViolations []int

	tis        []tinfo
	chipDemand []int            // pin-cycles per interval, per chip
	maxPayload []int            // widest transfer bus, per chip
	dur        []int            // per task; dur[:nP] is the key's latencies
	demand     [][]sched.Demand // per task; transfers' slices alias pins
	pins       []sched.Demand   // transfers' pin demands, Res set once
	ws         sched.Workspace

	key    keyOutcome
	reuses int // trials served from key, skipping keySection; tests read it
}

// keyOutcome is the outcome of keySection for one timing key: the interval
// l and, in busScratch.dur[:nP], each partition's latency in main cycles. A
// scratch serves one bus cap, which is therefore not part of the key. The
// section either rejected the key (code is not ReasonNone), with the
// check's chip and operands, or scheduled it, and then the scratch's
// schedule, modules, modArea and chipPins hold its results next to the
// fields here.
type keyOutcome struct {
	ok         bool // the section ran: the key is set
	l          int
	code       Reason
	chip       int
	why        rejection
	makespan   int
	cycles     int           // sched.ListResult's Cycles, for rec.urgency
	maxModCtrl stats.Triplet // the largest transfer-module control delay
}

// tinfo is a transfer's bus width (pins) and duration (main cycles) in one
// trial.
type tinfo struct{ pins, xferMain int }

// newScratch allocates trial scratch sized for the integrator's partitioning.
func (it *integrator) newScratch() *trialScratch {
	nP, nC, nT := len(it.p.Parts), len(it.p.Chips.Chips), len(it.tasks)
	sc := &trialScratch{
		idx:    make([]int, nP),
		choice: make([]*bad.Design, nP),
		q:      make([]int, 0, nP),
	}
	for bi := range sc.bus {
		b := &sc.bus[bi]
		b.modules = make([]xfer.Module, nT)
		areas := make([]stats.Triplet, 2*nC)
		b.chipArea, b.modArea = areas[:nC:nC], areas[nC:]
		b.chipPins = make([]int, nC)
		b.schedule = make([]TaskSpan, nP+nT)
		b.areaViolations = make([]int, 0, nC)
		b.tis = make([]tinfo, nT)
		b.chipDemand = make([]int, nC)
		b.maxPayload = make([]int, nC)
		b.dur = make([]int, nP+nT)
		b.demand = make([][]sched.Demand, nP+nT)
		b.pins = make([]sched.Demand, 0, it.xferPins)
		copy(b.demand, it.memPorts)
		for i, name := range it.names {
			b.schedule[i].Name = name
		}
		for i, chips := range it.xferChips {
			k := len(b.pins)
			for _, c := range chips {
				b.pins = append(b.pins, sched.Demand{Res: c})
			}
			b.demand[nP+i] = b.pins[k:]
			b.schedule[nP+i].Chips = chips
		}
	}
	return sc
}

// selectionOK checks the data-rate rules for one partition design at system
// interval l (main cycles): pipelined implementations must match l exactly
// (different pipelined data rates mismatch, paper section 2.4); faster
// non-pipelined implementations may run alongside slower ones.
func selectionOK(d *bad.Design, l int, clocks bad.Clocks) bool {
	ii := d.IIMainCycles(clocks)
	if d.Style == bad.Pipelined {
		return ii == l
	}
	return ii <= l
}

// evalTrial runs one trial in sc: the core.trial fault-injection site, then
// integrate bracketed by rec, which books the outcome into every attached
// telemetry plane (nil rec: none).
func (it *integrator) evalTrial(rec *recorder, sc *trialScratch, choice []*bad.Design, l int) (*GlobalDesign, error) {
	if err := it.cfg.Inject.Fire("core.trial"); err != nil {
		return nil, err
	}
	rec.begin(l)
	g, err := it.integrate(sc, choice, l, rec)
	rec.end(g, err)
	return g, err
}

// integrate evaluates one combination of partition designs at system
// initiation interval l (main-clock cycles) in sc. It always returns a
// GlobalDesign, which points into sc until sc's next trial; infeasibility
// is reported in Feasible/ReasonCode. A returned error signals a
// structural problem, not infeasibility.
//
// Transfers first use the maximum possible bandwidth (paper 2.5). When that
// fails only on chip area — wide buses cost pad area — the combination is
// re-evaluated with the narrow word-parallel bus (cfg.MaxBusPins), the
// smarter pin allocation the paper's footnote 1 anticipates.
func (it *integrator) integrate(sc *trialScratch, choice []*bad.Design, l int, rec *recorder) (*GlobalDesign, error) {
	g, err := it.integrateBus(&sc.bus[0], choice, l, 0, rec)
	if err != nil || g.Feasible || len(g.AreaViolations) == 0 {
		return g, err
	}
	narrow := it.cfg.MaxBusPins
	if narrow <= 0 {
		narrow = defaultBusPins
	}
	g2, err := it.integrateBus(&sc.bus[1], choice, l, narrow, rec)
	if err != nil {
		return g, nil
	}
	if g2.Feasible {
		return g2, nil
	}
	return g, nil
}

// integrateBus is integrate at a fixed bus-width cap (0 = maximum possible
// bandwidth), in b. After the data-rate rules it splits in two. The key
// section (keySection) depends only on the bus cap, which b never changes,
// the interval l and the partitions' latencies; a trial whose key equals
// the last one b ran the section for reuses that outcome instead. The rest
// depends on the whole choice and runs every trial.
func (it *integrator) integrateBus(b *busScratch, choice []*bad.Design, l, busCap int, rec *recorder) (*GlobalDesign, error) {
	p, cfg := it.p, &it.cfg
	g := &b.g
	// Zeroed, then set: assigning a composite literal would build the
	// whole design and copy it, every trial.
	*g = GlobalDesign{}
	g.IIMain, g.ReasonChip, g.picks = l, -1, choice
	// reject finalizes a rejection: chip is the 0-based chip the violated
	// check is tied to, or -1 for system-wide reasons.
	reject := func(code Reason, chip int, why rejection) (*GlobalDesign, error) {
		g.ReasonCode, g.ReasonChip, g.why = code, chip, why
		return g, nil
	}
	if len(choice) != len(p.Parts) {
		return g, fmt.Errorf("core: %d designs for %d partitions", len(choice), len(p.Parts))
	}
	for pi, d := range choice {
		if !selectionOK(d, l, cfg.Clocks) {
			return reject(ReasonRateMismatch, -1, rejection{n: [2]int{pi, d.IIMainCycles(cfg.Clocks)}})
		}
	}
	k := &b.key
	if b.sameKey(choice, l, cfg.Clocks) {
		b.reuses++
	} else {
		it.keySection(b, choice, l, busCap, rec)
	}
	if k.code != ReasonNone {
		return reject(k.code, k.chip, k.why)
	}
	// A reused schedule is booked as if it had run, so every urgency count
	// stays per trial.
	rec.urgency(len(b.dur), k.cycles)
	g.DelayMain = k.makespan
	g.Schedule, g.Modules, g.ChipPins = b.schedule, b.modules, b.chipPins

	// ---- per-chip area: transfer modules, partitions, on-chip memory ----
	g.ChipArea = b.chipArea
	copy(g.ChipArea, b.modArea)
	for pi, d := range choice {
		ci := p.PartChip[pi]
		g.ChipArea[ci] = g.ChipArea[ci].Add(d.Area)
	}
	for ci := range g.ChipArea {
		g.ChipArea[ci] = g.ChipArea[ci].Add(stats.Exact(it.memArea[ci]))
	}

	// ---- clock adjustment ----
	clock := stats.Exact(cfg.Clocks.MainNS)
	var maxOverhead stats.Triplet
	for _, d := range choice {
		maxOverhead = maxOverhead.Max(d.ClockOverhead)
	}
	clock = clock.Add(maxOverhead)
	// Off-chip flight time must fit inside one transfer cycle: two pad
	// delays plus the transfer controller and pin mux.
	if len(it.tasks) > 0 {
		flight := stats.Sum(stats.Exact(2*it.maxPad), k.maxModCtrl, stats.Exact(cfg.Lib.Mux.Delay))
		clock = clock.Max(flight.Scale(1 / float64(cfg.Clocks.TransferMult)))
	}
	g.Clock = clock
	g.PerfNS = clock.Scale(float64(l))
	g.DelayNS = clock.Scale(float64(g.DelayMain))

	// ---- power (extension) ----
	power := stats.Triplet{}
	for _, d := range choice {
		power = power.Add(d.Power)
	}
	for i := range g.Modules {
		m := &g.Modules[i]
		perChip := float64(m.BufferBits)*cfg.Lib.Register.Power +
			float64(m.Pins)*cfg.Lib.Mux.Power
		power = power.Add(stats.Exact(perChip * float64(len(it.xferChips[i]))))
	}
	g.Power = power

	// ---- feasibility analysis (paper section 2.6) ----
	g.AreaViolations = b.areaViolations[:0]
	for ci := range p.Chips.Chips {
		ch := &p.Chips.Chips[ci]
		if g.ChipPins[ci] > ch.Pkg.Pins {
			return reject(ReasonPins, ci, rejection{n: [2]int{g.ChipPins[ci], ch.Pkg.Pins}})
		}
		usable := ch.Pkg.UsableArea(g.ChipPins[ci])
		if !(stats.Constraint{Bound: usable, MinProb: 1}).Satisfied(g.ChipArea[ci]) {
			g.AreaViolations = append(g.AreaViolations, ci)
		}
	}
	if len(g.AreaViolations) > 0 {
		ci := g.AreaViolations[0]
		usable := p.Chips.Chips[ci].Pkg.UsableArea(g.ChipPins[ci])
		return reject(ReasonArea, ci, rejection{f: [2]float64{g.ChipArea[ci].Hi, usable}})
	}
	if c := cfg.Constraints.Perf; c.Bound > 0 && !c.Satisfied(g.PerfNS) {
		return reject(ReasonPerf, -1, rejection{f: [2]float64{g.PerfNS.Hi, c.Bound}})
	}
	if c := cfg.Constraints.Delay; c.Bound > 0 && !c.Satisfied(g.DelayNS) {
		return reject(ReasonDelay, -1, rejection{f: [2]float64{g.DelayNS.Mean(), c.Bound}})
	}
	if c := cfg.Constraints.Power; c.Bound > 0 && !c.Satisfied(g.Power) {
		return reject(ReasonPower, -1, rejection{f: [2]float64{g.Power.Mean(), c.Bound}})
	}
	g.Feasible = true
	return g, nil
}

// sameKey reports whether b's last key section ran for this trial's key:
// interval l and each partition's latency in main cycles.
func (b *busScratch) sameKey(choice []*bad.Design, l int, clocks bad.Clocks) bool {
	if !b.key.ok || b.key.l != l {
		return false
	}
	for pi, d := range choice {
		if b.dur[pi] != d.LatencyMainCycles(clocks) {
			return false
		}
	}
	return true
}

// keySection runs integrateBus's key section for the trial's timing key
// into b: transfer widths and durations, the no-pins, data-clash,
// pin-bandwidth and memory-bandwidth checks, the urgency schedule, the
// transfer modules with their area per chip, and each chip's pins. It
// records the outcome in b.key and leaves the key's latencies in
// b.dur[:nP]. rec brackets the schedule and xfer work; a rejection inside
// a bracket abandons it, so its time falls into the trial's integrate
// remainder instead (see recorder.end).
func (it *integrator) keySection(b *busScratch, choice []*bad.Design, l, busCap int, rec *recorder) {
	p, cfg := it.p, &it.cfg
	k := &b.key
	*k = keyOutcome{ok: true, l: l, chip: -1}
	reject := func(code Reason, chip int, why rejection) {
		k.code, k.chip, k.why = code, chip, why
	}
	nP := len(p.Parts)
	dur := b.dur
	for pi, d := range choice {
		dur[pi] = d.LatencyMainCycles(cfg.Clocks)
	}

	// ---- transfer bandwidth and duration ----
	// The available bandwidth is the minimum pin budget over the involved
	// chips (paper 2.5), optionally capped at busCap; a capped bus widens
	// again only when the data-clash bound (X <= l) demands it, and any bus
	// narrows to the fewest pins sustaining its transfer time so pads are
	// not wasted.
	xtok := rec.phase()
	tis := b.tis
	for i := range it.tasks {
		t := &it.tasks[i]
		bwMax := xfer.Bandwidth(t.Bits, it.xferChips[i], it.budget)
		if bwMax <= 0 && t.Bits > 0 {
			reject(ReasonNoPins, -1, rejection{subject: t.Name})
			return
		}
		bus := bwMax
		if busCap > 0 && busCap < bus {
			bus = busCap
		}
		x := xfer.TransferCycles(t.Bits, bus)
		xm := x * cfg.Clocks.TransferMult
		if xm > l {
			// Too slow at the natural bus width: widen to meet the clash
			// bound if the chips have the pins for it.
			maxXfer := l / cfg.Clocks.TransferMult
			if maxXfer < 1 {
				maxXfer = 1
			}
			need := (t.Bits + maxXfer - 1) / maxXfer
			if need > bwMax {
				// Data clash: a transfer longer than the initiation
				// interval collides with the next sample (paper 2.5).
				reject(ReasonDataClash, -1, rejection{subject: t.Name, n: [2]int{xm}})
				return
			}
			bus = need
			x = xfer.TransferCycles(t.Bits, bus)
			xm = x * cfg.Clocks.TransferMult
		}
		pins := bus
		if x > 0 {
			pins = (t.Bits + x - 1) / x
		}
		tis[i] = tinfo{pins: pins, xferMain: xm}
	}
	rec.endPhase(xtok, obs.PhaseXfer)
	// Steady-state pin capacity per chip: the pin-cycles demanded per
	// interval must fit the budget.
	chipDemand := b.chipDemand
	clear(chipDemand)
	for i, chips := range it.xferChips {
		for _, c := range chips {
			chipDemand[c] += tis[i].pins * tis[i].xferMain
		}
	}
	for ci, demand := range chipDemand {
		if demand > it.budget[ci]*l {
			reject(ReasonPinBandwidth, ci, rejection{n: [2]int{demand, it.budget[ci]}})
			return
		}
	}
	// ---- memory bandwidth ----
	for _, m := range it.memTraffic {
		if capacity := m.perCycle * l; m.bits > capacity {
			reject(ReasonMemBandwidth, -1, rejection{subject: m.name, n: [2]int{m.bits, capacity}})
			return
		}
	}

	// ---- urgency scheduling over shared pins and memory ports ----
	// Memory blocks are schedulable resources too (paper 2.5: the urgency
	// scheduling keeps "memory accesses to each memory block feasible"):
	// a partition accessing a block holds one of its ports while running,
	// so partitions sharing a single-port block serialize.
	for i := range it.tasks {
		dur[nP+i] = tis[i].xferMain
		for j := range b.demand[nP+i] {
			b.demand[nP+i][j].Amount = tis[i].pins
		}
	}
	stok := rec.phase()
	sres, err := b.ws.List(sched.TaskGraph{Dur: dur, Succs: it.succs, Demand: b.demand, Cap: it.caps})
	rec.endPhase(stok, obs.PhaseSchedule)
	if err != nil {
		reject(ReasonSchedule, -1, rejection{err: err})
		return
	}
	k.makespan, k.cycles = sres.Makespan, sres.Cycles
	for i := range b.schedule {
		b.schedule[i].Start, b.schedule[i].Dur = sres.Start[i], dur[i]
	}

	// ---- transfer modules (buffer sizing from wait + transfer times) ----
	xtok = rec.phase()
	for i := range it.tasks {
		t, ti := &it.tasks[i], tis[i]
		ready := 0
		if t.FromPart != xfer.External {
			ready = sres.Start[t.FromPart] + dur[t.FromPart]
		}
		startT := sres.Start[nP+i]
		finishT := startT + ti.xferMain
		destStart := finishT
		if t.ToPart != xfer.External {
			destStart = sres.Start[t.ToPart]
		}
		wait := (startT - ready) + (destStart - finishT)
		if wait < 0 {
			wait = 0
		}
		m := &b.modules[i]
		xfer.PredictModule(m, t, wait, ti.xferMain, ti.pins, l, cfg.Lib)
		k.maxModCtrl = k.maxModCtrl.Max(m.CtrlDelay)
	}
	rec.endPhase(xtok, obs.PhaseXfer)

	// ---- transfer-module area and pins per chip ----
	maxPayload := b.maxPayload
	clear(b.modArea)
	clear(maxPayload)
	for i, chips := range it.xferChips {
		for _, c := range chips {
			b.modArea[c] = b.modArea[c].Add(b.modules[i].Area)
			maxPayload[c] = max(maxPayload[c], tis[i].pins)
		}
	}
	for ci := range p.Chips.Chips {
		b.chipPins[ci] = p.Chips.Chips[ci].ReservedPins + it.ctrlPins[ci] + it.memPins[ci] + maxPayload[ci]
	}
}

// DebugIntegrator exposes integrate for white-box probing; not part of the
// public surface. It serves one goroutine at a time.
type DebugIntegrator struct {
	it *integrator
	sc *trialScratch
}

// NewDebugIntegrator builds an integrator or panics.
func NewDebugIntegrator(p *Partitioning, cfg Config) *DebugIntegrator {
	it, err := newIntegrator(p, cfg)
	if err != nil {
		panic(err)
	}
	return &DebugIntegrator{it, it.newScratch()}
}

// Eval runs one integration and returns a design that owns its memory.
func (d *DebugIntegrator) Eval(choice []bad.Design, l int) GlobalDesign {
	picks := d.sc.choice[:0]
	for i := range choice {
		picks = append(picks, &choice[i])
	}
	g, err := d.it.integrate(d.sc, picks, l, nil)
	if err != nil {
		panic(err)
	}
	return g.own()
}
