package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"unsafe"

	"chop/internal/bad"
	"chop/internal/stats"
	"chop/internal/xfer"
)

// Edge-case tables for the small helpers the search engines lean on:
// nextValid (the Figure-5 serialization step), the ownership of designs
// that escape the trial scratch, and the shard arithmetic of the parallel
// engine.

func TestNextValidEdgeCases(t *testing.T) {
	// exp1 clocks: DatapathMult 10, so a design with II n runs at 10n main
	// cycles. Pipelined designs are selectable only at exactly their
	// interval; non-pipelined at any interval at or above it.
	cfg := exp1Config()
	pip := func(ii int) bad.Design { return bad.Design{Style: bad.Pipelined, II: ii} }
	non := func(ii int) bad.Design { return bad.Design{Style: bad.NonPipelined, II: ii} }
	cases := []struct {
		name string
		list []bad.Design
		from int
		l    int
		want int
	}{
		{"empty list", nil, -1, 100, -1},
		{"empty list, from beyond", nil, 5, 100, -1},
		{"single element, from at end", []bad.Design{non(3)}, 0, 100, -1},
		{"from beyond length", []bad.Design{non(3), non(4)}, 7, 100, -1},
		{"all-invalid tail", []bad.Design{non(3), non(8), non(9)}, 0, 40, -1},
		{"skips invalid middle", []bad.Design{non(3), non(9), non(4)}, 0, 40, 2},
		{"negative from scans whole list", []bad.Design{non(9), pip(2)}, -1, 20, 1},
		{"pipelined needs exact interval", []bad.Design{pip(3), pip(5)}, -1, 40, -1},
		{"pipelined exact match", []bad.Design{pip(3), pip(4)}, -1, 40, 1},
		{"nonpipelined at bound", []bad.Design{non(4)}, -1, 40, 0},
		{"nonpipelined above bound", []bad.Design{non(5)}, -1, 40, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := nextValid(tc.list, tc.from, tc.l, cfg.Clocks); got != tc.want {
				t.Fatalf("nextValid(from=%d, l=%d) = %d, want %d", tc.from, tc.l, got, tc.want)
			}
		})
	}
}

// TestSearchDesignsOwnTheirMemory: a design that escapes a search shares
// no memory with another design or with the worker's trial scratch. One
// scratch runs an enumeration trial by trial, as a worker does, slowest
// combination first, so that better designs displace kept ones while
// others survive: on the stress search, which keeps one design in the
// end, and on two random seeds whose frontiers keep two.
// After every trial each kept design must read as it did when it joined
// the frontier. The frontier must equal that of a run with fresh scratch
// per trial, no two kept designs may share a backing array, and a second
// search on the same scratch must leave them unchanged.
func TestSearchDesignsOwnTheirMemory(t *testing.T) {
	seed := func(s int64) func(*testing.T) (*Partitioning, Config, []bad.Result) {
		return func(t *testing.T) (*Partitioning, Config, []bad.Result) {
			p, cfg, err := randomProblem(t, s)
			if err != nil {
				t.Fatal(err)
			}
			preds, err := PredictPartitions(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return p, cfg, preds
		}
	}
	for _, tc := range []struct {
		name    string
		problem func(*testing.T) (*Partitioning, Config, []bad.Result)
		// The search's feasible trials, the designs its frontier keeps,
		// and the trials that displaced a kept design while another
		// survived.
		feasible, kept, displaced int
	}{
		{"stress", stressSearchProblem, 512, 1, 2},
		{"seed19", seed(19), 8, 2, 2},
		{"seed39", seed(39), 50, 2, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, cfg, preds := tc.problem(t)
			it, err := newIntegrator(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			lists := make([][]bad.Design, len(preds))
			total := 1
			for i, r := range preds {
				lists[i] = r.Designs
				total *= len(r.Designs)
			}
			sc := it.newScratch()
			var got SearchResult
			// joined holds each kept design as it read when it joined the
			// frontier, keyed by its own Choice array.
			joined := map[*bad.Design][]byte{}
			displaced := 0
			for k := total - 1; k >= 0; k-- {
				before := len(got.Best)
				decodeCombination(k, lists, sc.idx)
				if err := enumTrial(it, &cfg, &got, lists, sc, nil); err != nil {
					t.Fatal(err)
				}
				survivors := 0
				for i := range got.Best {
					blob, err := json.Marshal(&got.Best[i])
					if err != nil {
						t.Fatal(err)
					}
					id := unsafe.SliceData(got.Best[i].Choice)
					was, ok := joined[id]
					if !ok {
						joined[id] = blob
						continue
					}
					if !bytes.Equal(was, blob) {
						t.Fatalf("trial %d changed kept design %d", k, i)
					}
					survivors++
				}
				if survivors > 0 && survivors < before {
					displaced++
				}
			}
			if got.FeasibleTrials != tc.feasible || len(got.Best) != tc.kept || displaced != tc.displaced {
				t.Fatalf("%d feasible trials, %d designs kept, %d displaced beside a survivor; want %d, %d and %d",
					got.FeasibleTrials, len(got.Best), displaced, tc.feasible, tc.kept, tc.displaced)
			}
			if i, j, ok := sharedMemory(got.Best); ok {
				t.Fatalf("Best[%d] and Best[%d] share a backing array", i, j)
			}
			var want SearchResult
			if err := oracleEnumerate(it, cfg, lists, &want); err != nil {
				t.Fatal(err)
			}
			finishSearch(&want)
			finishSearch(&got)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("reused scratch: the frontier differs from fresh scratch's")
			}

			var again SearchResult
			for _, l := range iterativeIntervals(cfg, lists) {
				if err := iterativeInterval(it, cfg, lists, l, &again, nil, sc); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < total; k++ {
				decodeCombination(k, lists, sc.idx)
				if err := enumTrial(it, &cfg, &again, lists, sc, nil); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("a second search on the same scratch changed the first search's designs")
			}
		})
	}
}

// sharedMemory reports two designs whose slices (Choice, ChipArea,
// ChipPins, Modules, AreaViolations, Schedule and the spans' Chips)
// overlap in memory.
func sharedMemory(gs []GlobalDesign) (int, int, bool) {
	type block struct {
		lo, hi uintptr
		design int
	}
	var blocks []block
	add := func(design int, p unsafe.Pointer, n int, size uintptr) {
		if n > 0 {
			lo := uintptr(p)
			blocks = append(blocks, block{lo, lo + uintptr(n)*size, design})
		}
	}
	for i := range gs {
		g := &gs[i]
		add(i, unsafe.Pointer(unsafe.SliceData(g.Choice)), cap(g.Choice), unsafe.Sizeof(bad.Design{}))
		add(i, unsafe.Pointer(unsafe.SliceData(g.ChipArea)), cap(g.ChipArea), unsafe.Sizeof(stats.Triplet{}))
		add(i, unsafe.Pointer(unsafe.SliceData(g.ChipPins)), cap(g.ChipPins), unsafe.Sizeof(0))
		add(i, unsafe.Pointer(unsafe.SliceData(g.Modules)), cap(g.Modules), unsafe.Sizeof(xfer.Module{}))
		add(i, unsafe.Pointer(unsafe.SliceData(g.AreaViolations)), cap(g.AreaViolations), unsafe.Sizeof(0))
		add(i, unsafe.Pointer(unsafe.SliceData(g.Schedule)), cap(g.Schedule), unsafe.Sizeof(TaskSpan{}))
		for _, s := range g.Schedule {
			add(i, unsafe.Pointer(unsafe.SliceData(s.Chips)), cap(s.Chips), unsafe.Sizeof(0))
		}
	}
	// Sweep in address order: a block starting below the furthest end seen
	// so far overlaps the block owning that end.
	sort.Slice(blocks, func(a, b int) bool { return blocks[a].lo < blocks[b].lo })
	var end block
	for _, b := range blocks {
		if b.lo < end.hi && b.design != end.design {
			return end.design, b.design, true
		}
		if b.hi > end.hi {
			end = b
		}
	}
	return 0, 0, false
}

func TestShardRangeCoversSpace(t *testing.T) {
	for _, tc := range []struct{ total, shards int }{
		{1, 1}, {7, 3}, {8, 4}, {100, 7}, {5, 5}, {16, 16},
	} {
		prev := 0
		for si := 0; si < tc.shards; si++ {
			lo, hi := shardRange(tc.total, tc.shards, si)
			if lo != prev {
				t.Fatalf("total=%d shards=%d: shard %d starts at %d, want %d",
					tc.total, tc.shards, si, lo, prev)
			}
			if hi < lo {
				t.Fatalf("total=%d shards=%d: shard %d inverted [%d,%d)",
					tc.total, tc.shards, si, lo, hi)
			}
			if size := hi - lo; size != tc.total/tc.shards && size != tc.total/tc.shards+1 {
				t.Fatalf("total=%d shards=%d: shard %d unbalanced size %d",
					tc.total, tc.shards, si, size)
			}
			prev = hi
		}
		if prev != tc.total {
			t.Fatalf("total=%d shards=%d: shards cover %d", tc.total, tc.shards, prev)
		}
	}
}

func TestDecodeCombinationMatchesOdometer(t *testing.T) {
	lists := [][]bad.Design{
		make([]bad.Design, 3),
		make([]bad.Design, 1),
		make([]bad.Design, 4),
	}
	total := 3 * 1 * 4
	idx := make([]int, len(lists)) // odometer walk
	decoded := make([]int, len(lists))
	for k := 0; k < total; k++ {
		decodeCombination(k, lists, decoded)
		for i := range idx {
			if decoded[i] != idx[i] {
				t.Fatalf("k=%d: decode %v, odometer %v", k, decoded, idx)
			}
		}
		advanceOdometer(idx, lists)
	}
	// After the last combination the odometer must report wrap-around.
	for i := range idx {
		idx[i] = len(lists[i]) - 1
	}
	if advanceOdometer(idx, lists) {
		t.Fatal("odometer did not report exhaustion at final combination")
	}
}
