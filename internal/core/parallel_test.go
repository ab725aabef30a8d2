package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/stats"
)

// runSerialAndParallel predicts once, then runs the serial oracle and the
// engine at the given worker count and returns both results.
func runSerialAndParallel(t *testing.T, p *Partitioning, cfg Config, h Heuristic, workers int) (serial, parallel SearchResult) {
	t.Helper()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	return searchSerialAndParallel(t, p, cfg, preds, h, workers)
}

// searchSerialAndParallel compares the engine with the serial oracle over
// precomputed predictions, so matrix tests pay for BAD only once per
// problem.
func searchSerialAndParallel(t *testing.T, p *Partitioning, cfg Config,
	preds []bad.Result, h Heuristic, workers int) (serial, parallel SearchResult) {
	t.Helper()
	serial = mustOracle(t, p, cfg, preds, h)
	pcfg := cfg
	pcfg.Workers = workers
	parallel, err := Search(p, pcfg, preds, h)
	if err != nil {
		t.Fatalf("parallel search (%d workers): %v", workers, err)
	}
	return serial, parallel
}

// requireIdentical asserts the full SearchResult equality the parallel
// engine promises: same counters, same Best ordering, same Space sequence.
func requireIdentical(t *testing.T, serial, parallel SearchResult, label string) {
	t.Helper()
	if serial.Trials != parallel.Trials || serial.FeasibleTrials != parallel.FeasibleTrials {
		t.Fatalf("%s: trials diverge: serial %d/%d, parallel %d/%d", label,
			serial.Trials, serial.FeasibleTrials, parallel.Trials, parallel.FeasibleTrials)
	}
	if len(serial.Best) != len(parallel.Best) {
		t.Fatalf("%s: |Best| diverges: serial %d, parallel %d", label, len(serial.Best), len(parallel.Best))
	}
	if len(serial.Space) != len(parallel.Space) {
		t.Fatalf("%s: |Space| diverges: serial %d, parallel %d", label, len(serial.Space), len(parallel.Space))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("%s: results are not byte-identical", label)
	}
}

// TestParallelMatchesSerialOnARFilter: the paper's AR-filter setups at
// several partition counts, both heuristics, with and without KeepAll,
// across worker counts (including more workers than shards). Predictions
// are computed once per problem; only the searches repeat.
func TestParallelMatchesSerialOnARFilter(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		for ci, base := range []Config{exp1Config(), exp2Config()} {
			if n == 3 && ci == 1 && testing.Short() {
				continue // the largest enumeration space; skip under -short
			}
			for _, keepAll := range []bool{false, true} {
				cfg := base
				cfg.KeepAll = keepAll
				p := arPartitioning(t, n, 1)
				preds, err := PredictPartitions(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range []Heuristic{Enumeration, Iterative} {
					for _, workers := range []int{3, 64} {
						serial, parallel := searchSerialAndParallel(t, p, cfg, preds, h, workers)
						label := fmt.Sprintf("ar n=%d cfg=%d keepAll=%v h=%s w=%d",
							n, ci+1, keepAll, h, workers)
						requireIdentical(t, serial, parallel, label)
					}
				}
			}
		}
	}
}

// TestParallelSpaceOrderMatchesSerial is the shard-merge regression test
// for record: under KeepAll the merged Space sequence must equal the
// serial append order point for point, not just as a multiset.
func TestParallelSpaceOrderMatchesSerial(t *testing.T) {
	cfg := exp1Config()
	cfg.KeepAll = true
	p := arPartitioning(t, 3, 1)
	serial, parallel := runSerialAndParallel(t, p, cfg, Enumeration, 4)
	if len(serial.Space) == 0 {
		t.Fatal("KeepAll run recorded no space points; test is vacuous")
	}
	for i := range serial.Space {
		if serial.Space[i] != parallel.Space[i] {
			t.Fatalf("Space[%d] diverges: serial %+v, parallel %+v",
				i, serial.Space[i], parallel.Space[i])
		}
	}
}

// TestParallelNegativeWorkersUsesAllCores: Workers < 0 must behave like an
// explicit worker count (GOMAXPROCS) and stay deterministic.
func TestParallelNegativeWorkersUsesAllCores(t *testing.T) {
	cfg := exp1Config()
	p := arPartitioning(t, 2, 1)
	serial, parallel := runSerialAndParallel(t, p, cfg, Enumeration, -1)
	requireIdentical(t, serial, parallel, "workers=-1")
}

// TestParallelEnumerationGuardMatchesSerial: the MaxCombinations guard must
// fire identically (same error text) on both paths.
func TestParallelEnumerationGuardMatchesSerial(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.MaxCombinations = 1
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	_, serr := Search(p, scfg, preds, Enumeration)
	pcfg := cfg
	pcfg.Workers = 4
	_, perr := Search(p, pcfg, preds, Enumeration)
	if serr == nil || perr == nil {
		t.Fatalf("guard did not fire: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("guard errors diverge:\n  serial:   %v\n  parallel: %v", serr, perr)
	}
}

// randomLayeredDFG builds a randomized acyclic layered graph from the
// seeded PRNG passed in (no global rand): 2-4 levels of 2-4 nodes, random
// add/mul/sub ops, random cross-level edges.
func randomLayeredDFG(rng *rand.Rand, name string) *dfg.Graph {
	g := dfg.New(name)
	ops := []dfg.Op{dfg.OpAdd, dfg.OpMul, dfg.OpSub}
	levels := 2 + rng.Intn(3)
	width := 2 + rng.Intn(3)
	prev := make([]int, 0, width)
	for i := 0; i < width; i++ {
		prev = append(prev, g.AddNode(fmt.Sprintf("in%d", i), dfg.OpInput, 16))
	}
	for l := 0; l < levels; l++ {
		cur := make([]int, 0, width)
		for i := 0; i < width; i++ {
			op := ops[rng.Intn(len(ops))]
			id := g.AddNode(fmt.Sprintf("n%d_%d", l, i), op, 16)
			// 1-2 predecessors from the previous level keeps it acyclic.
			g.MustConnect(prev[rng.Intn(len(prev))], id)
			if rng.Intn(2) == 0 {
				g.MustConnect(prev[rng.Intn(len(prev))], id)
			}
			cur = append(cur, id)
		}
		prev = cur
	}
	for i, id := range prev {
		g.MustConnect(id, g.AddNode(fmt.Sprintf("out%d", i), dfg.OpOutput, 16))
	}
	return g
}

// randomProblem derives a randomized partitioning problem from a seed:
// random graph, random 1-3-way level partitioning, random package and
// constraint looseness, random style. Everything flows from the seed, so
// failures reproduce exactly.
func randomProblem(t *testing.T, seed int64) (*Partitioning, Config, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomLayeredDFG(rng, fmt.Sprintf("rand%d", seed))
	nParts := 1 + rng.Intn(3)
	parts := dfg.LevelPartitions(g, nParts)
	nParts = len(parts)
	chips := make([]int, nParts)
	for i := range chips {
		chips[i] = i
	}
	p := &Partitioning{
		Graph:    g,
		Parts:    parts,
		PartChip: chips,
		Chips:    chip.NewUniformSet(nParts, chip.MOSISPackages()[rng.Intn(2)], 4),
	}
	if err := p.Validate(); err != nil {
		return nil, Config{}, err
	}
	bound := float64(10000 * (1 + rng.Intn(6)))
	cfg := Config{
		Lib:    lib.ExtendedLibrary(),
		Style:  bad.Style{MultiCycle: rng.Intn(2) == 0},
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 1 + rng.Intn(10), TransferMult: 1},
		Constraints: Constraints{
			Perf:  stats.Constraint{Bound: bound, MinProb: 1},
			Delay: stats.Constraint{Bound: 2 * bound, MinProb: 0.8},
		},
		KeepAll: rng.Intn(4) == 0,
	}
	return p, cfg, nil
}

// TestParallelMatchesSerialRandomized is the equivalence property test of
// the engine: on randomized DFGs, partitionings and configurations, both
// heuristics must reproduce the serial oracle byte for byte three ways —
// Search at one worker, at four and at a seed-derived count, and
// SearchShards over a seeded random split of a random shard count merged
// by MergeShardResults. The oracle keeps every feasible design until
// finishSearch reduces them, so this is also the shortcut-equivalence
// property of the engine's online frontier, and some of the searches keep
// several designs. Under -short and under the race detector, which slows
// every walk severalfold, it takes the first 60 seeds.
func TestParallelMatchesSerialRandomized(t *testing.T) {
	seeds := 300
	if testing.Short() || raceEnabled {
		seeds = 60
	}
	multi := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p, cfg, err := randomProblem(t, seed)
		if err != nil {
			t.Fatalf("seed %d: invalid problem: %v", seed, err)
		}
		preds, err := PredictPartitions(p, cfg)
		if err != nil {
			t.Fatalf("seed %d: predict: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		workers := 2 + int(seed%7)
		for _, h := range []Heuristic{Enumeration, Iterative} {
			serial := mustOracle(t, p, cfg, preds, h)
			if len(serial.Best) > 1 {
				multi++
			}
			for _, w := range []int{1, 4, workers} {
				wcfg := cfg
				wcfg.Workers = w
				parallel, err := Search(p, wcfg, preds, h)
				if err != nil {
					t.Fatalf("seed %d: search (%d workers): %v", seed, w, err)
				}
				requireIdentical(t, serial, parallel,
					fmt.Sprintf("seed=%d h=%s w=%d", seed, h, w))
			}
			requireIdentical(t, serial, searchShardsSplit(t, p, cfg, preds, h, rng),
				fmt.Sprintf("seed=%d h=%s split", seed, h))
		}
	}
	if multi == 0 {
		t.Fatal("no search keeps more than one design: the frontier goes untested")
	}
}

// searchShardsSplit plans a random shard count, runs the plan's shards as
// a seeded random split over separate SearchShards calls (the way a fleet
// of workers would), and merges the union with MergeShardResults.
func searchShardsSplit(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result,
	h Heuristic, rng *rand.Rand) SearchResult {
	t.Helper()
	plan, err := PlanShards(p, cfg, preds, h, 1+rng.Intn(16))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	pending := rng.Perm(plan.Shards)
	done := make(map[int]*SearchResult, plan.Shards)
	for len(pending) > 0 {
		n := 1 + rng.Intn(len(pending))
		part, err := SearchShards(p, cfg, preds, h, plan.Shards, pending[:n])
		if err != nil {
			t.Fatalf("SearchShards(%v): %v", pending[:n], err)
		}
		for si, r := range part {
			done[si] = r
		}
		pending = pending[n:]
	}
	merged, err := MergeShardResults(h, plan.Shards, done)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

// TestParallelSearchRaceStress drives the sharded merger hard under the
// race detector: many concurrent parallel searches over one shared
// partitioning, tracer and metrics registry, all workers contending on the
// same sinks.
func TestParallelSearchRaceStress(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.KeepAll = true
	cfg.Workers = 8
	cfg.Metrics = obs.NewMetrics()
	cfg.Trace = obs.New(obs.NewCountingSink())
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Search(p, cfg, preds, Enumeration)
			if err != nil {
				t.Errorf("concurrent search: %v", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent parallel search diverged from reference result")
			}
		}()
	}
	wg.Wait()
}
