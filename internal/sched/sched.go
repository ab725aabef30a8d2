// Package sched implements the scheduling of CHOP and its BAD predictor, in
// the style of Sehwa (paper reference [8]). One critical-path list
// scheduling kernel (List) serves both levels: BAD's resource-constrained
// schedule of a partition's operations over FU instances (ListSchedule for
// a Problem), and system integration's urgency schedule of partitions and
// data transfers over chip pins and memory ports. Modulo scheduling
// (Workspace.Modulo, or PipelinedSchedule for a Problem) covers pipelined
// designs. Operations may take several cycles; the single-cycle
// architecture style is the special case where every operation takes
// exactly one cycle.
package sched

import (
	"fmt"
	"slices"

	"chop/internal/dfg"
)

// Problem is one scheduling instance over a partition's subgraph.
type Problem struct {
	G *dfg.Graph
	// Cycles returns the execution time of a node in datapath cycles.
	// It must return >= 1 for FU-consuming ops and 0 for I/O markers.
	Cycles func(n dfg.Node) int
	// Limit is the functional-unit allocation per operation type. Ops
	// absent from the map are unconstrained.
	Limit map[dfg.Op]int
}

func (p Problem) cyclesOf(id int) int {
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

// Result is a computed schedule.
type Result struct {
	// Start is the first execution cycle of each node (I/O markers get the
	// cycle their value is produced/consumed).
	Start []int
	// Latency is the total schedule length in cycles: the number of cycles
	// from the first operation's start to the last operation's completion.
	Latency int
	// Instance, when non-nil, records the functional-unit instance index
	// (within the node's op type) each node was placed on. Modulo
	// scheduling fills it because per-slot counting alone does not
	// guarantee the circular intervals pack onto the allocated instances;
	// binding (package rtl) reuses the recorded placement.
	Instance []int
}

// ListSchedule computes a resource-constrained non-pipelined schedule using
// critical-path list scheduling (List): each op type with an FU limit is
// one resource of that capacity, held by each of its ops while it runs.
// It never fails for positive FU limits; the schedule just lengthens as
// resources shrink.
func ListSchedule(p Problem) (Result, error) {
	if err := checkLimits(p); err != nil {
		return Result{}, err
	}
	n := len(p.G.Nodes)
	tg := TaskGraph{
		Dur:    make([]int, n),
		Succs:  make([][]int, n),
		Demand: make([][]Demand, n),
		Cap:    make([]int, 0, len(p.Limit)),
	}
	limited := make([]dfg.Op, 0, len(p.Limit)) // resource -> op type
	for op, l := range p.Limit {
		limited = append(limited, op)
		tg.Cap = append(tg.Cap, l)
	}
	fus := make([]Demand, n)
	for id, node := range p.G.Nodes {
		tg.Dur[id] = p.cyclesOf(id)
		tg.Succs[id] = p.G.Succs(id)
		if r := slices.Index(limited, node.Op); r >= 0 && tg.Dur[id] > 0 {
			fus[id] = Demand{Res: r, Amount: 1}
			tg.Demand[id] = fus[id : id+1]
		}
	}
	s, err := List(tg)
	if err != nil {
		if _, terr := p.G.TopoOrder(); terr != nil {
			return Result{}, terr
		}
		return Result{}, fmt.Errorf("sched: list schedule did not converge (graph %q)", p.G.Name)
	}
	return Result{Start: s.Start, Latency: s.Makespan}, nil
}

func checkLimits(p Problem) error {
	for op, n := range p.Limit {
		if n <= 0 {
			return fmt.Errorf("sched: non-positive FU limit %d for op %q", n, op)
		}
	}
	return nil
}

// MinFUs returns the theoretical minimum functional-unit allocation that
// could sustain the given initiation interval: for each op type,
// ceil(total busy cycles / II).
func MinFUs(p Problem, ii int) map[dfg.Op]int {
	busy := make(map[dfg.Op]int)
	for id, n := range p.G.Nodes {
		if n.Op.NeedsFU() {
			busy[n.Op] += p.cyclesOf(id)
		}
	}
	out := make(map[dfg.Op]int, len(busy))
	for op, b := range busy {
		out[op] = (b + ii - 1) / ii
	}
	return out
}

// PipelinedSchedule computes a modulo schedule with the given initiation
// interval: a new sample enters every ii cycles and resource usage is
// counted modulo ii. It returns ok=false when the allocation cannot sustain
// the interval (resource or precedence pressure). It is Workspace.Modulo
// for one Problem, in memory of its own.
func PipelinedSchedule(p Problem, ii int) (Result, bool, error) {
	if ii < 1 {
		return Result{}, false, fmt.Errorf("sched: initiation interval %d < 1", ii)
	}
	if err := checkLimits(p); err != nil {
		return Result{}, false, err
	}
	// Quick resource lower-bound rejection.
	need := MinFUs(p, ii)
	for op, n := range need {
		if limit, has := p.Limit[op]; has && n > limit {
			return Result{}, false, nil
		}
	}
	mg, err := moduloGraph(p)
	if err != nil {
		return Result{}, false, err
	}
	var w Workspace
	r, ok := w.Modulo(mg, ii)
	return r, ok, nil
}

// moduloGraph converts p to Modulo's input: one resource per op type of a
// node with positive duration, with the op's limit or, unlimited, one
// instance per node.
func moduloGraph(p Problem) (ModuloGraph, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return ModuloGraph{}, err
	}
	n := len(p.G.Nodes)
	mg := ModuloGraph{
		Order: order,
		Preds: make([][]int, n),
		Dur:   make([]int, n),
		Res:   make([]int, n),
	}
	var ops []dfg.Op // resource -> op type
	for id, node := range p.G.Nodes {
		mg.Preds[id] = p.G.Preds(id)
		mg.Dur[id] = p.cyclesOf(id)
		if mg.Dur[id] == 0 {
			continue
		}
		r := slices.Index(ops, node.Op)
		if r < 0 {
			r = len(ops)
			ops = append(ops, node.Op)
			limit, has := p.Limit[node.Op]
			if !has {
				limit = n
			}
			mg.Cap = append(mg.Cap, limit)
		}
		mg.Res[id] = r
	}
	return mg, nil
}

// ModuloGraph is one modulo-scheduling instance over dense tasks.
// Modulo never writes a ModuloGraph, so callers may pass shared slices.
type ModuloGraph struct {
	// Order lists every task in a topological order.
	Order []int
	// Preds lists each task's predecessors.
	Preds [][]int
	// Dur is each task's duration (>= 0). A task of duration 0 holds no
	// resource and starts when its last predecessor finishes.
	Dur []int
	// Res is, for each task of positive duration, the resource whose
	// instances it runs on: an index into Cap.
	Res []int
	// Cap is each resource's instance count.
	Cap []int
}

// Modulo computes a modulo schedule with initiation interval ii >= 1 in
// w's memory: the tasks are placed in Order, each at the earliest start
// from which some instance of its resource has the task's whole circular
// interval free. Tracking instances (not just per-slot counts) matters:
// circular-arc packing can need more machines than the peak slot count, so
// per-slot feasibility alone would admit schedules no binding can realize.
// It returns ok=false when a task is longer than ii or finds no instance.
// The result's Start and Instance alias w until w's next call.
func (w *Workspace) Modulo(g ModuloGraph, ii int) (Result, bool) {
	n := len(g.Dur)
	w.start = resize(w.start, n)
	w.instance = resize(w.instance, n)
	start, instance := w.start, w.instance
	for i := range instance {
		instance[i] = -1
	}
	// wheels[r] holds resource r's instances created so far, ii slots
	// each: slot t of instance i is busy when wheels[r][i*ii+t] is set.
	if len(w.wheels) < len(g.Cap) {
		w.wheels = append(w.wheels, make([][]bool, len(g.Cap)-len(w.wheels))...)
	}
	for r := range g.Cap {
		w.wheels[r] = w.wheels[r][:0]
	}
	latency := 0
	horizon := ii * (n + 2)
	for _, id := range g.Order {
		dur := g.Dur[id]
		s := 0
		for _, pr := range g.Preds[id] {
			s = max(s, start[pr]+g.Dur[pr])
		}
		if dur == 0 {
			start[id] = s
			continue
		}
		if dur > ii {
			// An operation longer than the interval permanently occupies
			// more than one instance-wheel; with one new sample per ii
			// cycles such an op can never be rebound, so reject.
			return Result{}, false
		}
		r := g.Res[id]
		ws := w.wheels[r]
		// Wheel occupancy repeats every ii slots, and a missing wheel is
		// created empty (dur <= ii always fits), so one period of start
		// times decides placement.
		placed := false
		made := len(ws) / ii
		// t is s's slot on the wheels.
		for last, t := min(horizon, s+ii-1), s%ii; s <= last && !placed; s, t = s+1, (t+1)%ii {
			for wi := 0; wi < g.Cap[r]; wi++ {
				if wi == made {
					ws = slices.Grow(ws, ii)[:len(ws)+ii]
					clear(ws[wi*ii:])
					w.wheels[r] = ws
					made++
				}
				wheel := ws[wi*ii : (wi+1)*ii]
				if slotsFree(wheel, t, dur) {
					for k, u := 0, t; k < dur; k++ {
						wheel[u] = true
						if u++; u == ii {
							u = 0
						}
					}
					start[id] = s
					instance[id] = wi
					placed = true
					break
				}
			}
		}
		if !placed {
			return Result{}, false
		}
		latency = max(latency, start[id]+dur)
	}
	return Result{Start: start, Latency: latency, Instance: instance}, true
}

// slotsFree reports whether the dur circular slots of wheel from slot t
// on are all free.
func slotsFree(wheel []bool, t, dur int) bool {
	for k := 0; k < dur; k++ {
		if wheel[t] {
			return false
		}
		if t++; t == len(wheel) {
			t = 0
		}
	}
	return true
}

// Stages returns the number of pipeline stages of a modulo schedule:
// ceil(latency / ii). For non-pipelined schedules pass ii = latency to get 1.
func Stages(latency, ii int) int {
	if ii <= 0 {
		return 0
	}
	return (latency + ii - 1) / ii
}
