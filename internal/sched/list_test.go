package sched

import (
	"testing"
	"testing/quick"
)

func TestListEmpty(t *testing.T) {
	r, err := List(TaskGraph{})
	if err != nil || r.Makespan != 0 || r.Cycles != 0 {
		t.Fatalf("empty schedule: %+v err=%v", r, err)
	}
}

func TestListChainMakespan(t *testing.T) {
	r, err := List(TaskGraph{Dur: []int{5, 3, 2}, Succs: [][]int{{1}, {2}, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 10 {
		t.Fatalf("Makespan = %d, want 10", r.Makespan)
	}
	if r.Start[0] != 0 || r.Start[1] != 5 || r.Start[2] != 8 {
		t.Fatalf("starts = %v", r.Start)
	}
}

func TestListContentionSerializes(t *testing.T) {
	// Two transfers both need 20 pins on chip 0, which has 30: serialize.
	g := TaskGraph{
		Dur:    []int{4, 4},
		Succs:  make([][]int, 2),
		Demand: [][]Demand{{{0, 20}}, {{0, 20}}},
		Cap:    []int{30},
	}
	r, err := List(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 8 {
		t.Fatalf("Makespan = %d, want 8 (serialized)", r.Makespan)
	}
	// With 40 pins they run in parallel.
	g.Cap = []int{40}
	r2, err := List(g)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan != 4 {
		t.Fatalf("Makespan = %d, want 4 (parallel)", r2.Makespan)
	}
}

func TestListMultiResourceDemand(t *testing.T) {
	// A transfer occupying pins on two chips blocks tasks on either chip.
	r, err := List(TaskGraph{
		Dur:    []int{3, 3},
		Succs:  make([][]int, 2),
		Demand: [][]Demand{{{0, 10}, {1, 10}}, {{1, 10}}},
		Cap:    []int{10, 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 6 {
		t.Fatalf("Makespan = %d, want 6", r.Makespan)
	}
}

func TestListPrefersCriticalPath(t *testing.T) {
	// Two chains compete for one resource; the longer chain must go first
	// for the minimal makespan.
	r, err := List(TaskGraph{
		Dur:    []int{2, 10, 2},
		Succs:  [][]int{{1}, nil, nil},
		Demand: [][]Demand{{{0, 1}}, nil, {{0, 1}}},
		Cap:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Start[0] != 0 {
		t.Fatalf("critical task not scheduled first: starts=%v", r.Start)
	}
	if r.Makespan != 12 {
		t.Fatalf("Makespan = %d, want 12", r.Makespan)
	}
}

// TestListSweepRule pins that a task readied by a start joins the next
// sweep rather than the current one. A (duration 0) readies C as it
// starts; B, already ready and less urgent than C, takes the one
// resource in the same sweep, so C waits for B. A kernel that always pops
// the most urgent eligible task would start C at 0 and B at 5.
func TestListSweepRule(t *testing.T) {
	r, err := List(TaskGraph{
		Dur:    []int{0, 3, 5},
		Succs:  [][]int{{2}, nil, nil},
		Demand: [][]Demand{nil, {{0, 1}}, {{0, 1}}},
		Cap:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Start[0] != 0 || r.Start[1] != 0 || r.Start[2] != 3 || r.Makespan != 8 || r.Cycles != 4 {
		t.Fatalf("starts %v makespan %d cycles %d, want [0 0 3], 8, 4", r.Start, r.Makespan, r.Cycles)
	}
}

func TestListStallsOnOverDemand(t *testing.T) {
	g := TaskGraph{Dur: []int{1}, Succs: make([][]int, 1), Demand: [][]Demand{{{0, 100}}}, Cap: []int{64}}
	if _, err := List(g); err == nil {
		t.Fatal("over-demand accepted")
	}
}

func TestListCycleDetected(t *testing.T) {
	if _, err := List(TaskGraph{Dur: []int{1, 1}, Succs: [][]int{{1}, {0}}}); err == nil {
		t.Fatal("cyclic task graph accepted")
	}
}

func TestListBadDeps(t *testing.T) {
	if _, err := List(TaskGraph{Dur: []int{1}, Succs: [][]int{{5}}}); err == nil {
		t.Fatal("out-of-range successor accepted")
	}
	if _, err := List(TaskGraph{Dur: []int{1}, Succs: [][]int{{-1}}}); err == nil {
		t.Fatal("negative successor accepted")
	}
	if _, err := List(TaskGraph{Dur: []int{0}, Succs: [][]int{{0}}}); err == nil {
		t.Fatal("self dependency accepted")
	}
	if _, err := List(TaskGraph{Dur: []int{-1}, Succs: make([][]int, 1)}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := List(TaskGraph{Dur: []int{1, 1}, Succs: make([][]int, 1)}); err == nil {
		t.Fatal("missing successor list accepted")
	}
}

func TestListZeroDurationCascade(t *testing.T) {
	r, err := List(TaskGraph{Dur: []int{0, 0, 5}, Succs: [][]int{{1}, {2}, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 5 || r.Start[2] != 0 || r.Cycles != 1 {
		t.Fatalf("zero-duration tasks must cascade: %+v", r)
	}
}

func TestListUnconstrainedMakespan(t *testing.T) {
	r, err := List(TaskGraph{Dur: []int{5, 3, 9}, Succs: [][]int{{1}, nil, nil}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != 9 {
		t.Fatalf("unconstrained makespan = %d, want 9", r.Makespan)
	}
}

func TestPropListMakespanAtLeastUnconstrained(t *testing.T) {
	f := func(durs [6]uint8, pins [6]uint8) bool {
		g := TaskGraph{
			Dur:    make([]int, 6),
			Succs:  make([][]int, 6),
			Demand: make([][]Demand, 6),
			Cap:    []int{10},
		}
		for i := range g.Dur {
			g.Dur[i] = int(durs[i] % 20)
			g.Demand[i] = []Demand{{0, int(pins[i] % 10)}}
			if i >= 2 {
				g.Succs[i-2] = []int{i}
			}
		}
		r, err := List(g)
		if err != nil {
			return false
		}
		free, err := List(TaskGraph{Dur: g.Dur, Succs: g.Succs})
		if err != nil || r.Makespan < free.Makespan {
			return false
		}
		// precedence holds
		for i, ss := range g.Succs {
			for _, s := range ss {
				if r.Start[s] < r.Start[i]+g.Dur[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropListCapacityNeverExceeded(t *testing.T) {
	f := func(durs [5]uint8, pins [5]uint8) bool {
		g := TaskGraph{
			Dur:    make([]int, 5),
			Succs:  make([][]int, 5),
			Demand: make([][]Demand, 5),
			Cap:    []int{10},
		}
		for i := range g.Dur {
			g.Dur[i] = int(durs[i]%6) + 1
			g.Demand[i] = []Demand{{0, int(pins[i] % 8)}}
		}
		r, err := List(g)
		if err != nil {
			return false
		}
		// replay usage over time
		for t := 0; t < r.Makespan; t++ {
			use := 0
			for i, d := range g.Dur {
				if r.Start[i] <= t && t < r.Start[i]+d {
					use += g.Demand[i][0].Amount
				}
			}
			if use > g.Cap[0] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
