package core

import (
	"fmt"

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
	// first violated check otherwise.
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
// one partitioning: transfer tasks, per-chip pin budgets, memory traffic
// and the static parts of the urgency task graph.
type integrator struct {
	p   *Partitioning
	cfg Config
	// tasks are the inter-chip data-transfer tasks.
	tasks []xfer.Task
	// budget maps chip index -> pins available for transfer payload.
	budget map[int]int
	// ctrlPins / memPins are the reserved pin counts per chip.
	ctrlPins, memPins map[int]int
	// partMemBits aggregates memory traffic (bits per iteration per block)
	// per partition.
	partMemBits []map[string]int

	// The urgency task graph: the partitions (P1, P2, ...), then the
	// transfers. A partition precedes its outgoing transfers and a
	// transfer its destination partition. The resources are the chips'
	// pin budgets (0..C-1), then the memory blocks' ports; a partition
	// holds one port of every block it accesses, and a transfer its bus
	// pins on every chip it involves. Only durations and transfer pins
	// vary by trial.
	names     []string
	succs     [][]int
	caps      []int
	memPorts  [][]sched.Demand // per partition
	xferChips [][]int          // per transfer
	xferPins  int              // sum of len(xferChips[i])
}

func newIntegrator(p *Partitioning, cfg Config) (*integrator, error) {
	tasks, err := xfer.BuildTasks(p.Graph, p.Assignment(), p.PartChip)
	if err != nil {
		return nil, err
	}
	it := &integrator{
		p: p, cfg: cfg, tasks: tasks,
		budget:   make(map[int]int),
		ctrlPins: make(map[int]int),
		memPins:  make(map[int]int),
	}
	// Memory traffic per partition, from the subgraphs (design-independent).
	it.partMemBits = make([]map[string]int, len(p.Parts))
	for pi, sub := range p.Subgraphs() {
		m := make(map[string]int)
		for _, n := range sub.Nodes {
			if n.Op.IsMemory() {
				m[n.Mem] += n.Width
			}
		}
		it.partMemBits[pi] = m
	}
	// Reserved control pins per chip: per transfer task touching the chip,
	// plus the unshared pins of every off-chip memory path.
	for _, t := range tasks {
		for _, c := range t.Chips() {
			it.ctrlPins[c] += xfer.ControlPinsPerTask
		}
	}
	for pi, bits := range it.partMemBits {
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
		b := ch.DataPins() - it.ctrlPins[ci] - it.memPins[ci]
		if b < 0 {
			b = 0
		}
		it.budget[ci] = b
		it.caps = append(it.caps, b)
	}
	nP := len(p.Parts)
	it.names = make([]string, nP+len(tasks))
	it.succs = make([][]int, nP+len(tasks))
	it.memPorts = make([][]sched.Demand, nP)
	for pi := range p.Parts {
		it.names[pi] = fmt.Sprintf("P%d", pi+1)
		for bi, blk := range p.Mem.Blocks {
			if _, ok := it.partMemBits[pi][blk.Name]; ok {
				it.memPorts[pi] = append(it.memPorts[pi], sched.Demand{Res: len(p.Chips.Chips) + bi, Amount: 1})
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
		chips := t.Chips()
		it.xferChips = append(it.xferChips, chips)
		it.xferPins += len(chips)
	}
	return it, nil
}

// selectionOK checks the data-rate rules for one partition design at system
// interval l (main cycles): pipelined implementations must match l exactly
// (different pipelined data rates mismatch, paper section 2.4); faster
// non-pipelined implementations may run alongside slower ones.
func selectionOK(d bad.Design, l int, clocks bad.Clocks) bool {
	ii := d.IIMainCycles(clocks)
	if d.Style == bad.Pipelined {
		return ii == l
	}
	return ii <= l
}

// evalTrial runs one trial: the core.trial fault-injection site, then
// integrate bracketed by rec, which books the outcome into every attached
// telemetry plane (nil rec: none).
func (it *integrator) evalTrial(rec *recorder, choice []bad.Design, l int) (GlobalDesign, error) {
	if err := it.cfg.Inject.Fire("core.trial"); err != nil {
		return GlobalDesign{}, err
	}
	rec.begin(l)
	g, err := it.integrate(choice, l, rec)
	rec.end(&g, err)
	return g, err
}

// integrate evaluates one combination of partition designs at system
// initiation interval l (main-clock cycles). It always returns a
// GlobalDesign; infeasibility is reported in Feasible/Reason. A returned
// error signals a structural problem, not infeasibility.
//
// Transfers first use the maximum possible bandwidth (paper 2.5). When that
// fails only on chip area — wide buses cost pad area — the combination is
// re-evaluated with the narrow word-parallel bus (cfg.MaxBusPins), the
// smarter pin allocation the paper's footnote 1 anticipates.
func (it *integrator) integrate(choice []bad.Design, l int, rec *recorder) (GlobalDesign, error) {
	g, err := it.integrateBus(choice, l, 0, rec)
	if err != nil || g.Feasible || len(g.AreaViolations) == 0 {
		return g, err
	}
	narrow := it.cfg.MaxBusPins
	if narrow <= 0 {
		narrow = defaultBusPins
	}
	g2, err := it.integrateBus(choice, l, narrow, rec)
	if err != nil {
		return g, nil
	}
	if g2.Feasible {
		return g2, nil
	}
	return g, nil
}

// integrateBus is integrate at a fixed bus-width cap (0 = maximum possible
// bandwidth). rec brackets the schedule and xfer sections; a rejection
// inside a bracketed section abandons the bracket, so its time falls into
// the trial's integrate remainder instead (see PhaseHandle.EndTrial).
func (it *integrator) integrateBus(choice []bad.Design, l, busCap int, rec *recorder) (GlobalDesign, error) {
	p, cfg := it.p, it.cfg
	g := GlobalDesign{Choice: choice, IIMain: l, ReasonChip: -1}
	// infeasible finalizes a rejection: chip is the 0-based chip the
	// violated check is tied to, or -1 for system-wide reasons.
	infeasible := func(code Reason, chip int, format string, args ...any) (GlobalDesign, error) {
		g.Feasible = false
		g.ReasonCode = code
		g.ReasonChip = chip
		g.Reason = fmt.Sprintf(format, args...)
		return g, nil
	}
	if len(choice) != len(p.Parts) {
		return g, fmt.Errorf("core: %d designs for %d partitions", len(choice), len(p.Parts))
	}
	for pi, d := range choice {
		if !selectionOK(d, l, cfg.Clocks) {
			return infeasible(ReasonRateMismatch, -1, "partition %d data rate mismatch (II %d vs system %d)",
				pi+1, d.IIMainCycles(cfg.Clocks), l)
		}
	}

	// ---- transfer bandwidth and duration ----
	// The available bandwidth is the minimum pin budget over the involved
	// chips (paper 2.5), optionally capped at busCap; a capped bus widens
	// again only when the data-clash bound (X <= l) demands it, and any bus
	// narrows to the fewest pins sustaining its transfer time so pads are
	// not wasted.
	type tinfo struct{ pins, xferMain int }
	xtok := rec.phase()
	tis := make([]tinfo, len(it.tasks))
	for i, t := range it.tasks {
		bwMax := xfer.Bandwidth(t, it.budget)
		if bwMax <= 0 && t.Bits > 0 {
			return infeasible(ReasonNoPins, -1, "transfer %s has no pins available", t.Name)
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
				return infeasible(ReasonDataClash, -1, "transfer %s takes %d cycles, exceeding interval %d (data clash)",
					t.Name, xm, l)
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
	for ci := range p.Chips.Chips {
		demand := 0
		for i, t := range it.tasks {
			for _, c := range t.Chips() {
				if c == ci {
					demand += tis[i].pins * tis[i].xferMain
				}
			}
		}
		if demand > it.budget[ci]*l {
			return infeasible(ReasonPinBandwidth, ci, "chip %d pin bandwidth exceeded (%d pin-cycles > %d x %d)",
				ci+1, demand, it.budget[ci], l)
		}
	}
	// ---- memory bandwidth ----
	for _, blk := range p.Mem.Blocks {
		bits := 0
		for pi := range p.Parts {
			bits += it.partMemBits[pi][blk.Name]
		}
		if bits == 0 {
			continue
		}
		capacity := blk.BandwidthPerCycle(cfg.Clocks.MainNS) * l
		if bits > capacity {
			return infeasible(ReasonMemBandwidth, -1, "memory %s bandwidth exceeded (%d bits per interval > %d)",
				blk.Name, bits, capacity)
		}
	}

	// ---- urgency scheduling over shared pins and memory ports ----
	// Memory blocks are schedulable resources too (paper 2.5: the urgency
	// scheduling keeps "memory accesses to each memory block feasible"):
	// a partition accessing a block holds one of its ports while running,
	// so partitions sharing a single-port block serialize.
	nP := len(p.Parts)
	dur := make([]int, len(it.names))
	demand := make([][]sched.Demand, len(it.names))
	copy(demand, it.memPorts)
	for pi, d := range choice {
		dur[pi] = d.LatencyMainCycles(cfg.Clocks)
	}
	pins := make([]sched.Demand, 0, it.xferPins)
	for i, chips := range it.xferChips {
		dur[nP+i] = tis[i].xferMain
		k := len(pins)
		for _, c := range chips {
			pins = append(pins, sched.Demand{Res: c, Amount: tis[i].pins})
		}
		demand[nP+i] = pins[k:]
	}
	stok := rec.phase()
	sres, err := sched.List(sched.TaskGraph{Dur: dur, Succs: it.succs, Demand: demand, Cap: it.caps})
	rec.endPhase(stok, obs.PhaseSchedule)
	if err != nil {
		return infeasible(ReasonSchedule, -1, "task scheduling failed: %v", err)
	}
	rec.urgency(len(dur), sres.Cycles)
	g.DelayMain = sres.Makespan
	for i, name := range it.names {
		span := TaskSpan{Name: name, Start: sres.Start[i], Dur: dur[i]}
		if i >= nP {
			span.Chips = it.tasks[i-nP].Chips()
		}
		g.Schedule = append(g.Schedule, span)
	}

	// ---- transfer modules (buffer sizing from wait + transfer times) ----
	xtok = rec.phase()
	g.Modules = make([]xfer.Module, len(it.tasks))
	maxModCtrl := stats.Triplet{}
	for i, t := range it.tasks {
		ti := tis[i]
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
		m := xfer.PredictModule(t, wait, ti.xferMain, ti.pins, l, cfg.Lib)
		g.Modules[i] = m
		maxModCtrl = maxModCtrl.Max(m.CtrlDelay)
	}
	rec.endPhase(xtok, obs.PhaseXfer)

	// ---- per-chip area and pins ----
	g.ChipArea = make([]stats.Triplet, len(p.Chips.Chips))
	g.ChipPins = make([]int, len(p.Chips.Chips))
	maxPayload := make([]int, len(p.Chips.Chips))
	for i, t := range it.tasks {
		for _, c := range t.Chips() {
			g.ChipArea[c] = g.ChipArea[c].Add(g.Modules[i].Area)
			if tis[i].pins > maxPayload[c] {
				maxPayload[c] = tis[i].pins
			}
		}
	}
	for pi, d := range choice {
		ci := p.PartChip[pi]
		g.ChipArea[ci] = g.ChipArea[ci].Add(d.Area)
	}
	for ci, ch := range p.Chips.Chips {
		g.ChipArea[ci] = g.ChipArea[ci].Add(stats.Exact(p.Mem.AreaOn(ci)))
		g.ChipPins[ci] = ch.ReservedPins + it.ctrlPins[ci] + it.memPins[ci] + maxPayload[ci]
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
		maxPad := 0.0
		for _, ch := range p.Chips.Chips {
			if ch.Pkg.PadDelay > maxPad {
				maxPad = ch.Pkg.PadDelay
			}
		}
		flight := stats.Sum(stats.Exact(2*maxPad), maxModCtrl, stats.Exact(cfg.Lib.Mux.Delay))
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
	for _, m := range g.Modules {
		perChip := float64(m.BufferBits)*cfg.Lib.Register.Power +
			float64(m.Pins)*cfg.Lib.Mux.Power
		power = power.Add(stats.Exact(perChip * float64(len(m.Task.Chips()))))
	}
	g.Power = power

	// ---- feasibility analysis (paper section 2.6) ----
	for ci, ch := range p.Chips.Chips {
		if g.ChipPins[ci] > ch.Pkg.Pins {
			return infeasible(ReasonPins, ci, "chip %d needs %d pins (package has %d)",
				ci+1, g.ChipPins[ci], ch.Pkg.Pins)
		}
		usable := ch.Pkg.UsableArea(g.ChipPins[ci])
		if !(stats.Constraint{Bound: usable, MinProb: 1}).Satisfied(g.ChipArea[ci]) {
			g.AreaViolations = append(g.AreaViolations, ci)
		}
	}
	if len(g.AreaViolations) > 0 {
		ci := g.AreaViolations[0]
		usable := p.Chips.Chips[ci].Pkg.UsableArea(g.ChipPins[ci])
		return infeasible(ReasonArea, ci, "chip %d area %.0f exceeds usable %.0f",
			ci+1, g.ChipArea[ci].Hi, usable)
	}
	if b := cfg.Constraints.Perf; b.Bound > 0 && !b.Satisfied(g.PerfNS) {
		return infeasible(ReasonPerf, -1, "performance %.0f ns violates bound %.0f", g.PerfNS.Hi, b.Bound)
	}
	if b := cfg.Constraints.Delay; b.Bound > 0 && !b.Satisfied(g.DelayNS) {
		return infeasible(ReasonDelay, -1, "system delay %.0f ns violates bound %.0f", g.DelayNS.Mean(), b.Bound)
	}
	if b := cfg.Constraints.Power; b.Bound > 0 && !b.Satisfied(g.Power) {
		return infeasible(ReasonPower, -1, "power %.0f mW violates bound %.0f", g.Power.Mean(), b.Bound)
	}
	g.Feasible = true
	return g, nil
}

// DebugIntegrator exposes integrate for white-box probing; not part of the
// public surface.
type DebugIntegrator struct{ it *integrator }

// NewDebugIntegrator builds an integrator or panics.
func NewDebugIntegrator(p *Partitioning, cfg Config) *DebugIntegrator {
	it, err := newIntegrator(p, cfg)
	if err != nil {
		panic(err)
	}
	return &DebugIntegrator{it}
}

// Eval runs one integration.
func (d *DebugIntegrator) Eval(choice []bad.Design, l int) GlobalDesign {
	g, err := d.it.integrate(choice, l, nil)
	if err != nil {
		panic(err)
	}
	return g
}
