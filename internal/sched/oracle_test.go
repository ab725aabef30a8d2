package sched

// Oracles: verbatim copies of the cycle-stepped list schedulers and the
// modulo scheduler as they stood before the shared list-scheduling kernel,
// renamed only where their names would clash inside this package. The
// tests below compare the live schedulers against them over seeded random
// inputs, so any change of schedule, makespan, cycle count or
// error-or-not shows up as a mismatch.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"chop/internal/dfg"
)

// ---- urgency.ScheduleStats (system integration), verbatim ----

// urgencyTask is one schedulable unit: a partition execution or a data transfer.
type urgencyTask struct {
	Name string
	// Dur is the task duration in main-clock cycles (>= 0).
	Dur int
	// Deps lists the indices of tasks that must finish before this one
	// starts.
	Deps []int
	// Pins maps chip index -> pins occupied on that chip while the task
	// runs. Partition executions occupy no pins; transfers occupy their
	// bus width on every involved chip.
	Pins map[int]int
}

// urgencyResult is the computed task schedule.
type urgencyResult struct {
	// Start holds each task's start time in main-clock cycles.
	Start []int
	// Makespan is the system delay: the latest finish time.
	Makespan int
}

// urgencyStats reports the effort of one scheduling call, for the observability
// layer: the integrator feeds these into its metrics registry so urgency
// scheduling cost shows up in per-stage breakdowns.
type urgencyStats struct {
	// Tasks is the number of tasks scheduled.
	Tasks int
	// Cycles is the number of wall cycles the scheduler stepped through.
	Cycles int
	// Makespan duplicates Result.Makespan for convenience.
	Makespan int
}

// urgencyScheduleStats is Schedule plus effort statistics.
func urgencyScheduleStats(tasks []urgencyTask, cap map[int]int) (urgencyResult, urgencyStats, error) {
	n := len(tasks)
	if n == 0 {
		return urgencyResult{}, urgencyStats{}, nil
	}
	for i, t := range tasks {
		if t.Dur < 0 {
			return urgencyResult{}, urgencyStats{}, fmt.Errorf("urgency: task %q has negative duration", t.Name)
		}
		for _, d := range t.Deps {
			if d < 0 || d >= n {
				return urgencyResult{}, urgencyStats{}, fmt.Errorf("urgency: task %q has dependency %d out of range", t.Name, d)
			}
			if d == i {
				return urgencyResult{}, urgencyStats{}, fmt.Errorf("urgency: task %q depends on itself", t.Name)
			}
		}
		for chip, p := range t.Pins {
			if p > cap[chip] {
				return urgencyResult{}, urgencyStats{}, fmt.Errorf("urgency: task %q needs %d pins on chip %d (capacity %d)",
					t.Name, p, chip, cap[chip])
			}
			if p < 0 {
				return urgencyResult{}, urgencyStats{}, fmt.Errorf("urgency: task %q has negative pin demand", t.Name)
			}
		}
	}
	succs := make([][]int, n)
	indeg := make([]int, n)
	for i, t := range tasks {
		for _, d := range t.Deps {
			succs[d] = append(succs[d], i)
			indeg[i]++
		}
	}
	order, err := urgencyTopo(tasks, succs, indeg)
	if err != nil {
		return urgencyResult{}, urgencyStats{}, err
	}
	// Urgency: longest path (inclusive) from the task to any sink.
	urg := make([]int, n)
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		max := 0
		for _, s := range succs[id] {
			if urg[s] > max {
				max = urg[s]
			}
		}
		urg[id] = max + tasks[id].Dur
	}

	start := make([]int, n)
	for i := range start {
		start[i] = -1
	}
	finish := make([]int, n)
	unmet := make([]int, n)
	copy(unmet, indeg)
	ready := []int{}
	for i, d := range unmet {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	earliest := make([]int, n)
	type running struct{ id, finish int }
	var active []running
	free := make(map[int]int, len(cap))
	for c, p := range cap {
		free[c] = p
	}
	scheduled := 0
	makespan := 0
	cycles := 0
	for t := 0; scheduled < n; t++ {
		cycles = t + 1
		// Retire finished tasks, releasing pins and readying successors.
		kept := active[:0]
		for _, r := range active {
			if r.finish > t {
				kept = append(kept, r)
				continue
			}
			for c, p := range tasks[r.id].Pins {
				free[c] += p
			}
		}
		active = kept
		// Launch ready tasks, most urgent first; sweep until fixpoint so
		// zero-duration tasks cascade within the same cycle.
		for progress := true; progress; {
			progress = false
			sort.Slice(ready, func(a, b int) bool {
				if urg[ready[a]] != urg[ready[b]] {
					return urg[ready[a]] > urg[ready[b]]
				}
				return ready[a] < ready[b]
			})
			var still []int
			for _, id := range ready {
				if earliest[id] > t || !pinsFree(tasks[id].Pins, free) {
					still = append(still, id)
					continue
				}
				for c, p := range tasks[id].Pins {
					free[c] -= p
				}
				start[id] = t
				finish[id] = t + tasks[id].Dur
				if finish[id] > makespan {
					makespan = finish[id]
				}
				if tasks[id].Dur > 0 {
					active = append(active, running{id, finish[id]})
				} else {
					for c, p := range tasks[id].Pins {
						free[c] += p
					}
				}
				scheduled++
				progress = true
				for _, s := range succs[id] {
					if finish[id] > earliest[s] {
						earliest[s] = finish[id]
					}
					unmet[s]--
					if unmet[s] == 0 {
						still = append(still, s)
					}
				}
			}
			ready = still
		}
		if t > horizonFor(tasks) && scheduled < n {
			return urgencyResult{}, urgencyStats{}, fmt.Errorf("urgency: schedule did not converge after %d cycles", t)
		}
	}
	return urgencyResult{Start: start, Makespan: makespan},
		urgencyStats{Tasks: n, Cycles: cycles, Makespan: makespan}, nil
}

func pinsFree(need map[int]int, free map[int]int) bool {
	for c, p := range need {
		if free[c] < p {
			return false
		}
	}
	return true
}

func horizonFor(tasks []urgencyTask) int {
	h := 16
	for _, t := range tasks {
		h += t.Dur + 1
	}
	return h * 2
}

func urgencyTopo(tasks []urgencyTask, succs [][]int, indeg []int) ([]int, error) {
	n := len(tasks)
	deg := make([]int, n)
	copy(deg, indeg)
	queue := []int{}
	for i, d := range deg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range succs[id] {
			deg[s]--
			if deg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("urgency: task graph has a cycle")
	}
	return order, nil
}

// ---- sched.ListSchedule (BAD's non-pipelined sweep), verbatim ----

// oldPriorities returns, per node, the length in cycles of the longest path
// from that node to any sink (inclusive of the node itself). Higher is more
// urgent; this is the standard list-scheduling priority.
func oldPriorities(p Problem) ([]int, error) {
	order, err := p.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	prio := make([]int, len(p.G.Nodes))
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		max := 0
		for _, su := range p.G.Succs(id) {
			if prio[su] > max {
				max = prio[su]
			}
		}
		prio[id] = max + p.cyclesOf(id)
	}
	return prio, nil
}

// oldListSchedule computes a resource-constrained non-pipelined schedule using
// critical-path list scheduling. It never fails for positive FU limits; the
// schedule just lengthens as resources shrink.
func oldListSchedule(p Problem) (Result, error) {
	if err := checkLimits(p); err != nil {
		return Result{}, err
	}
	prio, err := oldPriorities(p)
	if err != nil {
		return Result{}, err
	}
	order, _ := p.G.TopoOrder()

	start := make([]int, len(p.G.Nodes))
	for i := range start {
		start[i] = -1
	}
	unschedPreds := make([]int, len(p.G.Nodes))
	for id := range p.G.Nodes {
		unschedPreds[id] = len(p.G.Preds(id))
	}
	// busy[op] holds the finish cycles of in-flight ops of that type, one
	// entry per occupied FU instance.
	type event struct{ finish int }
	busy := make(map[dfg.Op][]event)

	ready := make([]int, 0, len(p.G.Nodes))
	for _, id := range order {
		if unschedPreds[id] == 0 {
			ready = append(ready, id)
		}
	}
	earliest := make([]int, len(p.G.Nodes))
	scheduled := 0
	latency := 0
	for cycle := 0; scheduled < len(p.G.Nodes); cycle++ {
		// Retire finished ops.
		for op, evs := range busy {
			kept := evs[:0]
			for _, e := range evs {
				if e.finish > cycle {
					kept = append(kept, e)
				}
			}
			busy[op] = kept
		}
		// Repeatedly sweep the ready list within this cycle: scheduling a
		// zero-duration node (an I/O marker) can make its successors ready
		// in the very same cycle.
		for progress := true; progress; {
			progress = false
			// Most-urgent-first among ready ops whose earliest time has come.
			sort.Slice(ready, func(i, j int) bool {
				if prio[ready[i]] != prio[ready[j]] {
					return prio[ready[i]] > prio[ready[j]]
				}
				return ready[i] < ready[j]
			})
			var still []int
			for _, id := range ready {
				if earliest[id] > cycle {
					still = append(still, id)
					continue
				}
				op := p.G.Nodes[id].Op
				dur := p.cyclesOf(id)
				if dur > 0 {
					limit, has := p.Limit[op]
					if has && len(busy[op]) >= limit {
						still = append(still, id)
						continue
					}
					busy[op] = append(busy[op], event{finish: cycle + dur})
				}
				start[id] = cycle
				if f := cycle + dur; f > latency {
					latency = f
				}
				scheduled++
				progress = true
				for _, su := range p.G.Succs(id) {
					if e := cycle + dur; e > earliest[su] {
						earliest[su] = e
					}
					unschedPreds[su]--
					if unschedPreds[su] == 0 {
						still = append(still, su)
					}
				}
			}
			ready = still
		}
		if cycle > len(p.G.Nodes)*oldMaxDur(p)+len(p.G.Nodes)+8 && scheduled < len(p.G.Nodes) {
			return Result{}, fmt.Errorf("sched: list schedule did not converge (graph %q)", p.G.Name)
		}
	}
	return Result{Start: start, Latency: latency}, nil
}

func oldMaxDur(p Problem) int {
	m := 1
	for id := range p.G.Nodes {
		if d := p.cyclesOf(id); d > m {
			m = d
		}
	}
	return m
}

// ---- sched.PipelinedSchedule (BAD's modulo scheduler), verbatim ----

// oldPipelinedSchedule computes a modulo schedule with the given initiation
// interval: a new sample enters every ii cycles and resource usage is
// counted modulo ii. It returns ok=false when the allocation cannot sustain
// the interval (resource or precedence pressure).
func oldPipelinedSchedule(p Problem, ii int) (Result, bool, error) {
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
		placed := false
		for ; s <= horizon && !placed; s++ {
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

// ---- random inputs ----

// randomTasks draws an urgency-style task graph of up to 24 tasks over up
// to three resources. Tasks are numbered in a shuffled topological order,
// so index ties and priorities disagree with insertion order. A quarter of
// the tasks take no time, and half of the dependencies chain a task to the
// one placed just before it, which builds zero-duration chains. Demands
// often equal their resource's capacity, dependencies may repeat, and a
// few graphs carry an over-capacity demand or a back edge (possibly a
// cycle).
func randomTasks(rng *rand.Rand) ([]urgencyTask, map[int]int) {
	n := rng.Intn(25)
	caps := map[int]int{}
	for r := rng.Intn(4); r > 0; r-- {
		caps[len(caps)] = 1 + rng.Intn(8)
	}
	pos := rng.Perm(n) // topological position -> task index
	tasks := make([]urgencyTask, n)
	for k := range n {
		t := urgencyTask{Name: fmt.Sprintf("t%d", k)}
		switch rng.Intn(4) {
		case 0:
		case 1:
			t.Dur = 1 + rng.Intn(20)
		default:
			t.Dur = 1 + rng.Intn(4)
		}
		for d := rng.Intn(4); d > 0 && k > 0; d-- {
			j := k - 1
			if rng.Intn(2) == 0 {
				j = rng.Intn(k)
			}
			t.Deps = append(t.Deps, pos[j])
		}
		for r := range len(caps) {
			c := caps[r]
			switch x := rng.Intn(10); {
			case x < 2:
				t.Pins = withPins(t.Pins, r, c)
			case x < 5:
				t.Pins = withPins(t.Pins, r, rng.Intn(c+1))
			case x == 5 && rng.Intn(25) == 0:
				t.Pins = withPins(t.Pins, r, c+1)
			}
		}
		tasks[pos[k]] = t
	}
	if n > 0 && rng.Intn(30) == 0 {
		k := rng.Intn(n)
		j := k + rng.Intn(n-k)
		tasks[pos[k]].Deps = append(tasks[pos[k]].Deps, pos[j])
	}
	return tasks, caps
}

func withPins(m map[int]int, r, p int) map[int]int {
	if m == nil {
		m = map[int]int{}
	}
	m[r] = p
	return m
}

// randomProblem draws a scheduling problem over dfg.RandomDAG: random
// cycles per op type (a sub may ask for 0, which counts as 1), random FU
// limits with some op types unlimited, and a few repeated edges. One
// problem in 50 carries a back edge (a cycle) and one in 50 a zero limit.
func randomProblem(rng *rand.Rand, seed int64) Problem {
	g := dfg.RandomDAG(seed, 1+rng.Intn(4), 1+rng.Intn(40), 16)
	for k := rng.Intn(3); k > 0; k-- {
		e := g.Edges[rng.Intn(len(g.Edges))]
		if g.Nodes[e.To].Op.NeedsFU() {
			g.MustConnect(e.From, e.To)
		}
	}
	if rng.Intn(50) == 0 {
		e := g.Edges[rng.Intn(len(g.Edges))]
		g.MustConnect(e.To, e.From)
	}
	cyc := map[dfg.Op]int{
		dfg.OpAdd: 1 + rng.Intn(3),
		dfg.OpSub: rng.Intn(3),
		dfg.OpMul: 1 + rng.Intn(6),
	}
	limit := map[dfg.Op]int{}
	for _, op := range []dfg.Op{dfg.OpAdd, dfg.OpSub, dfg.OpMul} {
		if rng.Intn(3) > 0 {
			limit[op] = 1 + rng.Intn(4)
		}
	}
	if rng.Intn(50) == 0 {
		limit[dfg.OpAdd] = 0
	}
	return Problem{G: g, Cycles: func(n dfg.Node) int { return cyc[n.Op] }, Limit: limit}
}

// ---- comparisons ----

func sameErr(a, b error) bool { return (a == nil) == (b == nil) }

// taskGraph converts an urgency task list to the kernel's input.
func taskGraph(tasks []urgencyTask, caps map[int]int) TaskGraph {
	g := TaskGraph{
		Dur:    make([]int, len(tasks)),
		Succs:  make([][]int, len(tasks)),
		Demand: make([][]Demand, len(tasks)),
		Cap:    make([]int, len(caps)),
	}
	for r, c := range caps {
		g.Cap[r] = c
	}
	for i, tk := range tasks {
		g.Dur[i] = tk.Dur
		for _, d := range tk.Deps {
			g.Succs[d] = append(g.Succs[d], i)
		}
		for r := range len(caps) {
			if p, ok := tk.Pins[r]; ok {
				g.Demand[i] = append(g.Demand[i], Demand{Res: r, Amount: p})
			}
		}
	}
	return g
}

// TestListMatchesUrgencyOracle runs every case on one reused Workspace, so
// state left by a larger or a failed graph would show as a divergence.
func TestListMatchesUrgencyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ws Workspace
	for c := 0; c < 20000; c++ {
		tasks, caps := randomTasks(rng)
		want, wst, werr := urgencyScheduleStats(tasks, caps)
		got, gerr := ws.List(taskGraph(tasks, caps))
		if !sameErr(werr, gerr) {
			t.Fatalf("case %d: error %v, oracle %v\ntasks %+v caps %v", c, gerr, werr, tasks, caps)
		}
		if werr != nil {
			continue
		}
		if !slices.Equal(got.Start, want.Start) || got.Makespan != want.Makespan || got.Cycles != wst.Cycles {
			t.Fatalf("case %d: start %v makespan %d cycles %d, oracle %v %d %d\ntasks %+v caps %v",
				c, got.Start, got.Makespan, got.Cycles, want.Start, want.Makespan, wst.Cycles, tasks, caps)
		}
	}
}

// benchmarkProblems are the paper's and the stress graphs under a few FU
// limits, next to the random ones.
func benchmarkProblems() []Problem {
	graphs := []*dfg.Graph{
		dfg.ARLatticeFilter(16), dfg.EllipticWaveFilter(16), dfg.FIR(16, 16),
		dfg.DiffEq(16), dfg.DCT8(16), dfg.Stress(4, 6, 16),
	}
	var out []Problem
	for _, g := range graphs {
		for fu := 1; fu <= 3; fu++ {
			out = append(out, Problem{G: g, Cycles: func(n dfg.Node) int {
				if n.Op == dfg.OpMul {
					return 2
				}
				return 1
			}, Limit: map[dfg.Op]int{dfg.OpAdd: fu, dfg.OpMul: fu}})
		}
	}
	return out
}

func TestListScheduleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	probs := benchmarkProblems()
	for c := 0; c < 3000; c++ {
		probs = append(probs, randomProblem(rng, int64(c)))
	}
	for c, p := range probs {
		want, werr := oldListSchedule(p)
		got, gerr := ListSchedule(p)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d (%s, limits %v): %+v err %v, oracle %+v err %v",
				c, p.G.Name, p.Limit, got, gerr, want, werr)
		}
	}
}

func TestPipelinedScheduleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ws Workspace
	feasible := 0
	for c := 0; c < 20000; c++ {
		p := randomProblem(rng, int64(c%3000))
		ii := 1 + rng.Intn(8)
		cyc := p.Cycles
		switch rng.Intn(3) {
		case 0: // multipliers exactly fill the interval
			p.Cycles = func(n dfg.Node) int {
				if n.Op == dfg.OpMul {
					return ii
				}
				return cyc(n)
			}
		case 1: // more instances, so the MinFUs bound passes more often
			for _, op := range []dfg.Op{dfg.OpAdd, dfg.OpSub, dfg.OpMul} {
				if l := p.Limit[op]; l > 0 {
					p.Limit[op] = l + rng.Intn(6)
				}
			}
		}
		want, wok, werr := oldPipelinedSchedule(p, ii)
		got, gok, gerr := PipelinedSchedule(p, ii)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || gok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%s, ii %d, limits %v): %+v ok %v err %v, oracle %+v ok %v err %v",
				c, p.G.Name, ii, p.Limit, got, gok, gerr, want, wok, werr)
		}
		// The same case on one Workspace reused across all cases: wheels
		// left by an earlier interval or allocation must not leak in.
		if mg, err := moduloGraph(p); err == nil && werr == nil && checkLimits(p) == nil {
			got, gok = ws.Modulo(mg, ii)
			if gok != wok || (wok && !reflect.DeepEqual(got, want)) {
				t.Fatalf("case %d (%s, ii %d, limits %v): reused workspace %+v ok %v, oracle %+v ok %v",
					c, p.G.Name, ii, p.Limit, got, gok, want, wok)
			}
		}
		if wok {
			feasible++
		}
	}
	t.Logf("%d of 20000 cases feasible", feasible)
}
