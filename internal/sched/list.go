package sched

import (
	"cmp"
	"fmt"
	"slices"
)

// Demand is a task's hold on one resource while it runs.
type Demand struct {
	// Res indexes TaskGraph.Cap.
	Res    int
	Amount int
}

// TaskGraph is one list-scheduling instance: a DAG of tasks with
// durations, competing for resources of fixed capacity. BAD schedules a
// partition's operations over FU instances per op type; system
// integration schedules partitions and transfers over chip pins and
// memory ports. List never writes a TaskGraph, so callers may pass shared
// slices.
type TaskGraph struct {
	// Dur is each task's duration (>= 0).
	Dur []int
	// Succs lists each task's successors; a repeated edge counts twice.
	Succs [][]int
	// Demand lists, per task, the resources it holds while it runs. A
	// zero-duration task needs them free when it starts and returns them
	// at once. Nil means no task demands anything.
	Demand [][]Demand
	// Cap is each resource's capacity.
	Cap []int
}

// ListResult is a computed task schedule.
type ListResult struct {
	// Start is each task's start time.
	Start []int
	// Makespan is the latest finish time.
	Makespan int
	// Cycles is the last start time plus one: the number of time steps a
	// cycle-by-cycle scheduler steps through.
	Cycles int
}

// List computes a resource-constrained schedule by critical-path list
// scheduling (Sehwa, paper reference [8]):
//
//   - A task's priority is its longest path to a sink, counting its own
//     duration. Higher goes first; ties go to the lower index.
//   - At time t, the resources of tasks finished at or before t are freed.
//     Then the ready list is swept in priority order, and a task starts if
//     its earliest start is at most t and every demand fits. Sweeps repeat
//     until one starts nothing.
//   - A task becomes ready when its last predecessor starts, and joins the
//     next sweep. Its earliest start is the latest finish among its
//     predecessors, so zero-duration chains cascade within one time step.
//
// After a sweep that starts nothing, time jumps to the next finish or the
// next earliest start, since nothing can start in between. List returns an
// error when a duration is negative, a successor is out of range, the graph
// has a cycle, or tasks remain and no such time exists (a demand exceeds
// its capacity).
//
// List allocates its working memory per call; Workspace.List reuses it.
func List(g TaskGraph) (ListResult, error) {
	var w Workspace
	return w.List(g)
}

// Workspace is the working memory of List and Modulo, kept for reuse
// across calls. The zero value is ready to use. A Workspace serves one
// goroutine at a time.
type Workspace struct {
	start, buf []int
	instance   []int
	wheels     [][]bool
}

// List is the package-level List computed in w's memory, which grows to
// the largest graph w has scheduled and is not allocated again. The
// result's Start aliases w until w's next call.
func (w *Workspace) List(g TaskGraph) (ListResult, error) {
	n := len(g.Dur)
	if n == 0 {
		return ListResult{}, nil
	}
	if len(g.Succs) != n {
		return ListResult{}, fmt.Errorf("sched: %d successor lists for %d tasks", len(g.Succs), n)
	}
	for id, d := range g.Dur {
		if d < 0 {
			return ListResult{}, fmt.Errorf("sched: task %d has negative duration %d", id, d)
		}
	}
	demand := func(id int) []Demand {
		if g.Demand == nil {
			return nil
		}
		return g.Demand[id]
	}
	w.start = resize(w.start, n)
	w.buf = resize(w.buf, 6*n+len(g.Cap))
	start, buf := w.start, w.buf
	unmet, prio, earliest := buf[:n], buf[n:2*n], buf[2*n:3*n]
	order, ready, running := buf[3*n:3*n:4*n], buf[4*n:4*n:5*n], buf[5*n:5*n:6*n]
	free := buf[6*n:]
	copy(free, g.Cap)
	// Every other slice is written before it is read: prio in reverse
	// topological order, earliest by the copy below, start as tasks start.
	clear(unmet)

	for id, ss := range g.Succs {
		for _, s := range ss {
			if s < 0 || s >= n {
				return ListResult{}, fmt.Errorf("sched: task %d has successor %d out of range", id, s)
			}
			unmet[s]++
		}
	}
	// Kahn order, counting in-degrees down in earliest: an acyclic graph
	// leaves every count at zero, which is every task's initial earliest
	// start.
	deg := earliest
	copy(deg, unmet)
	for id, d := range deg {
		if d == 0 {
			order = append(order, id)
		}
	}
	ready = append(ready, order...)
	for h := 0; h < len(order); h++ {
		for _, s := range g.Succs[order[h]] {
			if deg[s]--; deg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) < n {
		return ListResult{}, fmt.Errorf("sched: task graph has a cycle")
	}
	for i := n - 1; i >= 0; i-- {
		id := order[i]
		p := 0
		for _, s := range g.Succs[id] {
			p = max(p, prio[s])
		}
		prio[id] = p + g.Dur[id]
	}
	mostUrgent := func(a, b int) int {
		if c := cmp.Compare(prio[b], prio[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	fits := func(id int) bool {
		for _, d := range demand(id) {
			if free[d.Res] < d.Amount {
				return false
			}
		}
		return true
	}

	t, done, makespan := 0, 0, 0
	for {
		kept := running[:0]
		for _, id := range running {
			if start[id]+g.Dur[id] > t {
				kept = append(kept, id)
				continue
			}
			for _, d := range demand(id) {
				free[d.Res] += d.Amount
			}
		}
		running = kept
		for started := true; started; {
			started = false
			slices.SortFunc(ready, mostUrgent)
			// Tasks that stay ready are compacted to the front; tasks this
			// sweep readies are appended past the swept ones (the buffer
			// holds every task at most once) and moved down afterwards.
			swept, w := len(ready), 0
			for i := 0; i < swept; i++ {
				id := ready[i]
				if earliest[id] > t || !fits(id) {
					ready[w] = id
					w++
					continue
				}
				start[id] = t
				finish := t + g.Dur[id]
				makespan = max(makespan, finish)
				if g.Dur[id] > 0 {
					for _, d := range demand(id) {
						free[d.Res] -= d.Amount
					}
					running = append(running, id)
				}
				done++
				started = true
				for _, s := range g.Succs[id] {
					earliest[s] = max(earliest[s], finish)
					if unmet[s]--; unmet[s] == 0 {
						ready = append(ready, s)
					}
				}
			}
			ready = append(ready[:w], ready[swept:]...)
		}
		if done == n {
			return ListResult{Start: start, Makespan: makespan, Cycles: t + 1}, nil
		}
		next := -1
		for _, id := range running {
			if f := start[id] + g.Dur[id]; next < 0 || f < next {
				next = f
			}
		}
		for _, id := range ready {
			if e := earliest[id]; e > t && (next < 0 || e < next) {
				next = e
			}
		}
		if next < 0 {
			return ListResult{}, fmt.Errorf("sched: list schedule stalled at time %d with %d of %d tasks unscheduled",
				t, n-done, n)
		}
		t = next
	}
}

// resize returns s with length n, reallocated only when its capacity is
// short.
func resize(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
