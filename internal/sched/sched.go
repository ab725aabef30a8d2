// Package sched implements the scheduling of CHOP and its BAD predictor, in
// the style of Sehwa (paper reference [8]). One critical-path list
// scheduling kernel (List) serves both levels: BAD's resource-constrained
// schedule of a partition's operations over FU instances (ListSchedule),
// and system integration's urgency schedule of partitions and data
// transfers over chip pins and memory ports. Modulo (initiation-interval
// constrained) scheduling covers pipelined designs. Operations may take
// several cycles; the single-cycle architecture style is the special case
// where every operation takes exactly one cycle.
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

// ASAP returns the as-soon-as-possible start cycle of every node and the
// resulting unconstrained latency.
func ASAP(p Problem) (starts []int, latency int, err error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	starts = make([]int, len(p.G.Nodes))
	for _, id := range order {
		s := 0
		for _, pr := range p.G.Preds(id) {
			if f := starts[pr] + p.cyclesOf(pr); f > s {
				s = f
			}
		}
		starts[id] = s
		if f := s + p.cyclesOf(id); f > latency {
			latency = f
		}
	}
	return starts, latency, nil
}

// ALAP returns the as-late-as-possible start cycles for the given deadline
// (in cycles). Nodes that cannot meet the deadline get negative starts.
func ALAP(p Problem, deadline int) ([]int, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(p.G.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		s := deadline - p.cyclesOf(id)
		for _, su := range p.G.Succs(id) {
			if lim := starts[su] - p.cyclesOf(id); lim < s {
				s = lim
			}
		}
		starts[id] = s
	}
	return starts, nil
}

// CriticalCycles returns the unconstrained critical-path length in cycles.
func CriticalCycles(p Problem) (int, error) {
	_, lat, err := ASAP(p)
	return lat, err
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
// the interval (resource or precedence pressure).
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
	order, err := p.G.TopoOrder()
	if err != nil {
		return Result{}, false, err
	}
	// Schedule in topological order, each op at the earliest start where a
	// concrete FU instance has the op's whole circular interval free.
	// Tracking instances (not just per-slot counts) matters: circular-arc
	// packing can need more machines than the peak slot count, so per-slot
	// feasibility alone would admit schedules no binding can realize.
	wheels := make(map[dfg.Op][][]bool) // op -> instance -> slot busy
	start := make([]int, len(p.G.Nodes))
	instance := make([]int, len(p.G.Nodes))
	for i := range instance {
		instance[i] = -1
	}
	latency := 0
	horizon := ii * (len(p.G.Nodes) + 2)
	for _, id := range order {
		n := p.G.Nodes[id]
		dur := p.cyclesOf(id)
		s := 0
		for _, pr := range p.G.Preds(id) {
			if f := start[pr] + p.cyclesOf(pr); f > s {
				s = f
			}
		}
		if dur == 0 {
			start[id] = s
			continue
		}
		if dur > ii {
			// An operation longer than the interval permanently occupies
			// more than one instance-wheel; with one new sample per ii
			// cycles such an op can never be rebound, so reject.
			return Result{}, false, nil
		}
		limit, has := p.Limit[n.Op]
		if !has {
			limit = len(p.G.Nodes)
		}
		ws := wheels[n.Op]
		if ws == nil {
			ws = make([][]bool, 0, limit)
			wheels[n.Op] = ws
		}
		// Wheel occupancy repeats every ii slots, and a missing wheel is
		// created empty (dur <= ii always fits), so one period of start
		// times decides placement.
		placed := false
		for last := min(horizon, s+ii-1); s <= last && !placed; s++ {
			for wi := 0; wi < limit; wi++ {
				if wi == len(ws) {
					ws = append(ws, make([]bool, ii))
					wheels[n.Op] = ws
				}
				free := true
				for k := 0; k < dur; k++ {
					if ws[wi][(s+k)%ii] {
						free = false
						break
					}
				}
				if free {
					for k := 0; k < dur; k++ {
						ws[wi][(s+k)%ii] = true
					}
					start[id] = s
					instance[id] = wi
					placed = true
					break
				}
			}
		}
		if !placed {
			return Result{}, false, nil
		}
		if f := start[id] + dur; f > latency {
			latency = f
		}
	}
	return Result{Start: start, Latency: latency, Instance: instance}, true, nil
}

// Stages returns the number of pipeline stages of a modulo schedule:
// ceil(latency / ii). For non-pipelined schedules pass ii = latency to get 1.
func Stages(latency, ii int) int {
	if ii <= 0 {
		return 0
	}
	return (latency + ii - 1) / ii
}
