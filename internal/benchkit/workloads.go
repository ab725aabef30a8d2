package benchkit

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"chop/internal/advisor"
	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/experiments"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/stats"
)

// Workload is one calibrated measurement target.
type Workload struct {
	Name string
	// Run executes one iteration. m receives the pipeline's counters on
	// calibration passes and is nil during timed iterations, so metrics
	// overhead never pollutes ns/op.
	Run func(m *obs.Metrics) error
	// ProfiledRun, when non-nil, executes one iteration serially
	// (Workers = 1) with the phase accounter attached, so `chop profile`
	// can attribute the iteration's cost to phases. The serial run is a
	// requirement, not a convenience: per-phase allocation deltas read
	// process-wide heap counters and are only attributable when a single
	// goroutine does the allocating.
	ProfiledRun func(pa *obs.PhaseAccounter) error
}

// Workloads returns the harness's workload set: the paper's two
// experiments, the benchmark graphs at several partition scales, and the
// synthetic stress case. Order is stable so BENCH reports diff cleanly.
func Workloads() []Workload {
	ws := []Workload{
		{Name: "exp1/counts", Run: expCounts(1)},
		{Name: "exp1/results", Run: expResults(1)},
		{Name: "exp2/counts", Run: expCounts(2)},
		{Name: "exp2/results", Run: expResults(2)},
	}
	for _, gw := range []struct {
		name  string
		build func() *dfg.Graph
		parts int
	}{
		{"graph/ar/p2", func() *dfg.Graph { return dfg.ARLatticeFilter(16) }, 2},
		{"graph/ewf/p2", func() *dfg.Graph { return dfg.EllipticWaveFilter(16) }, 2},
		{"graph/ewf/p3", func() *dfg.Graph { return dfg.EllipticWaveFilter(16) }, 3},
		{"graph/fir24/p2", func() *dfg.Graph { return dfg.FIR(24, 16) }, 2},
		{"graph/fir48/p3", func() *dfg.Graph { return dfg.FIR(48, 16) }, 3},
		{"graph/diffeq/p2", func() *dfg.Graph { return dfg.DiffEq(16) }, 2},
		{"stress/layered120/p3", func() *dfg.Graph { return StressDFG(6, 20, 16) }, 3},
	} {
		ws = append(ws, Workload{
			Name:        gw.name,
			Run:         graphRun(gw.build, gw.parts),
			ProfiledRun: graphProfiled(gw.build, gw.parts),
		})
	}
	// Serial-vs-parallel search on one shared stress problem (predictions
	// precomputed, so only the search stage is timed): the w4/w1 ratio in
	// a BENCH report is the parallel engine's speedup.
	ws = append(ws,
		Workload{Name: "search/stress/w1", Run: stressSearchRun(1), ProfiledRun: stressSearchProfiled()},
		Workload{Name: "search/stress/w4", Run: stressSearchRun(4)},
		// The same searches with checkpointing on: the ckpt/stress ratio
		// at equal worker count is the durability tax (expected < 2% — one
		// JSON snapshot per completed shard against thousands of trials).
		Workload{Name: "search/ckpt/w1", Run: checkpointSearchRun(1), ProfiledRun: checkpointSearchProfiled()},
		Workload{Name: "search/ckpt/w4", Run: checkpointSearchRun(4)},
		// The same searches with the telemetry plane on (RunStats fold plus
		// a fast-sampling Snapshotter): the stats/stress ratio at equal
		// worker count is the telemetry tax, gated by `chop bench
		// -stats-gate` in CI (expected well under 5% — the hot path is one
		// or two atomic adds per trial).
		Workload{Name: "search/stats/w1", Run: statsSearchRun(1)},
		Workload{Name: "search/stats/w4", Run: statsSearchRun(4)},
		Workload{Name: "advisor/cached", Run: advisorCachedRun()},
	)
	return ws
}

// stressProblem lazily builds the shared stress search problem: the 6x20
// stress graph cut into six level partitions on six chips, with the four
// fastest level-1-pruned designs of each partition. That is a stable
// 4,096-combination enumeration, big enough that the worker pool has real
// shards to drain, bounded enough to time repeatably, and with an eighth of
// its trials feasible, so the timed searches take the feasible path too.
var stressProblem struct {
	once  sync.Once
	p     *core.Partitioning
	cfg   core.Config
	preds []bad.Result
	err   error
}

// ensureStressProblem builds the shared problem once and reports any build
// failure on every later call.
func ensureStressProblem() error {
	s := &stressProblem
	s.once.Do(func() {
		g := StressDFG(6, 20, 16)
		const parts, keep = 6, 4
		p := &core.Partitioning{
			Graph:    g,
			Parts:    dfg.LevelPartitions(g, parts),
			PartChip: make([]int, parts),
			Chips:    chip.NewUniformSet(parts, chip.MOSISPackages()[1], 4),
		}
		for i := range p.PartChip {
			p.PartChip[i] = i
		}
		cfg := core.Config{
			Lib:    lib.ExtendedLibrary(),
			Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
			Constraints: core.Constraints{
				Perf:  stats.Constraint{Bound: 300000, MinProb: 1},
				Delay: stats.Constraint{Bound: 300000, MinProb: 0.8},
			},
		}
		preds, err := core.PredictPartitions(p, cfg)
		if err == nil {
			for i := range preds {
				if len(preds[i].Designs) > keep {
					preds[i].Designs = preds[i].Designs[:keep]
				}
			}
		}
		s.p, s.cfg, s.preds, s.err = p, cfg, preds, err
	})
	return s.err
}

func stressSearchRun(workers int) func(*obs.Metrics) error {
	return func(m *obs.Metrics) error {
		if err := ensureStressProblem(); err != nil {
			return err
		}
		cfg := stressProblem.cfg
		cfg.Workers = workers
		cfg.Metrics = m
		_, err := core.Search(stressProblem.p, cfg, stressProblem.preds, core.Enumeration)
		return err
	}
}

// stressSearchProfiled is the stress search with phase attribution: one
// serial iteration with the accounter wired into the engine, the target
// of the `chop profile` default workload.
func stressSearchProfiled() func(*obs.PhaseAccounter) error {
	return func(pa *obs.PhaseAccounter) error {
		if err := ensureStressProblem(); err != nil {
			return err
		}
		cfg := stressProblem.cfg
		cfg.Workers = 1
		cfg.Phases = pa
		_, err := core.Search(stressProblem.p, cfg, stressProblem.preds, core.Enumeration)
		return err
	}
}

// checkpointSearchProfiled is the checkpointed search under phase
// attribution, surfacing the checkpoint phase next to the trial phases.
func checkpointSearchProfiled() func(*obs.PhaseAccounter) error {
	return func(pa *obs.PhaseAccounter) error {
		if err := ensureStressProblem(); err != nil {
			return err
		}
		cfg := stressProblem.cfg
		cfg.Workers = 1
		cfg.Phases = pa
		cfg.CheckpointPath = filepath.Join(os.TempDir(), "chop-profile-ckpt-w1.json")
		_, err := core.Search(stressProblem.p, cfg, stressProblem.preds, core.Enumeration)
		return err
	}
}

// statsSearchRun is the stress search with live telemetry attached:
// identical work to stressSearchRun plus the per-shard RunStats fold and a
// snapshotter sampling it at 10x the production cadence, so the measured
// overhead bounds the real one from above.
func statsSearchRun(workers int) func(*obs.Metrics) error {
	return func(m *obs.Metrics) error {
		if err := ensureStressProblem(); err != nil {
			return err
		}
		cfg := stressProblem.cfg
		cfg.Workers = workers
		cfg.Metrics = m
		cfg.Stats = obs.NewRunStats("bench")
		snap := obs.NewSnapshotter(obs.SnapshotterOptions{Metrics: m, Stats: cfg.Stats})
		snap.Run(100 * time.Millisecond)
		defer snap.Stop()
		_, err := core.Search(stressProblem.p, cfg, stressProblem.preds, core.Enumeration)
		return err
	}
}

// checkpointSearchRun is the stress search with per-shard checkpointing:
// identical work to stressSearchRun plus one atomic JSON snapshot per
// completed shard. A successful search removes its checkpoint, so every
// iteration starts fresh and the measurement stays steady-state.
func checkpointSearchRun(workers int) func(*obs.Metrics) error {
	return func(m *obs.Metrics) error {
		if err := ensureStressProblem(); err != nil {
			return err
		}
		cfg := stressProblem.cfg
		cfg.Workers = workers
		cfg.Metrics = m
		cfg.CheckpointPath = filepath.Join(os.TempDir(),
			fmt.Sprintf("chop-bench-ckpt-w%d.json", workers))
		_, err := core.Search(stressProblem.p, cfg, stressProblem.preds, core.Enumeration)
		return err
	}
}

// advisorCachedRun is the predictor-cache workload: the advisor's
// op-migration improvement loop re-evaluates neighbor partitionings that
// mostly share partition content, so a content-keyed cache absorbs the
// repeated BAD work. The calibration pass surfaces bad.predict_cache_hit
// and bad.predict_cache_miss in the report's counters.
func advisorCachedRun() func(*obs.Metrics) error {
	return func(m *obs.Metrics) error {
		e := experiments.New(1)
		p := e.Partitioning(4, 2)
		cfg := e.Cfg
		cfg.Metrics = m
		cfg.PredictCache = bad.NewPredictCache(0)
		_, _, err := advisor.Improve(p, cfg, core.Iterative, 3)
		return err
	}
}

// expCounts regenerates the paper's Table 3/5 prediction statistics.
func expCounts(n int) func(*obs.Metrics) error {
	return func(m *obs.Metrics) error {
		e := experiments.New(n)
		e.Cfg.Metrics = m
		_, err := e.PredictionCounts()
		return err
	}
}

// expResults regenerates the paper's Table 4/6 partitioning results (both
// heuristics over the partition/package schedule).
func expResults(n int) func(*obs.Metrics) error {
	return func(m *obs.Metrics) error {
		e := experiments.New(n)
		e.Cfg.Metrics = m
		_, err := e.Results()
		return err
	}
}

// graphRun partitions a benchmark graph into `parts` level blocks on
// 84-pin packages and runs the full predict+search pipeline with the
// iterative heuristic. The constraints are looser than the paper's
// experiment 1 (the EWF's long dependence chain cannot meet 30 µs with a
// 3 µs datapath cycle), so every workload performs a non-trivial search
// instead of pruning everything at level 1. The extended library covers
// ops (cmp, sub, div) absent from the paper's Table 1.
func graphRun(build func() *dfg.Graph, parts int) func(*obs.Metrics) error {
	run := graphRunCfg(build, parts)
	return func(m *obs.Metrics) error {
		return run(m, nil)
	}
}

// graphRunCfg is the shared body of graphRun and graphProfiled: one full
// predict+search iteration with optional metrics and phase accounting.
func graphRunCfg(build func() *dfg.Graph, parts int) func(*obs.Metrics, *obs.PhaseAccounter) error {
	return func(m *obs.Metrics, pa *obs.PhaseAccounter) error {
		g := build()
		p := &core.Partitioning{
			Graph:    g,
			Parts:    dfg.LevelPartitions(g, parts),
			PartChip: make([]int, parts),
			Chips:    chip.NewUniformSet(parts, chip.MOSISPackages()[1], 4),
		}
		for i := range p.PartChip {
			p.PartChip[i] = i
		}
		cfg := core.Config{
			Lib:    lib.ExtendedLibrary(),
			Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
			Constraints: core.Constraints{
				Perf:  stats.Constraint{Bound: 90000, MinProb: 1},
				Delay: stats.Constraint{Bound: 90000, MinProb: 0.8},
			},
			Metrics: m,
			Phases:  pa,
		}
		_, _, err := core.Run(p, cfg, core.Iterative)
		return err
	}
}

// graphProfiled runs the same predict+search pipeline serially with a
// phase accounter attached, so profiled graph workloads attribute the
// prediction stage (and its cache lookups) alongside the trial phases.
func graphProfiled(build func() *dfg.Graph, parts int) func(*obs.PhaseAccounter) error {
	run := graphRunCfg(build, parts)
	return func(pa *obs.PhaseAccounter) error {
		return run(nil, pa)
	}
}

// StressDFG builds a synthetic layered data-flow graph for stress
// workloads: `levels` alternating add/mul levels of `width` nodes each,
// every node fed by two neighbors of the previous level, with input
// markers ahead of the first level and output markers after the last. The
// result is valid (acyclic, fully connected) and much larger than the
// paper's benchmarks, so it exercises scheduling and integration on a
// scale the original system never reached.
func StressDFG(levels, width, bits int) *dfg.Graph {
	g := dfg.New(fmt.Sprintf("stress-%dx%d", levels, width))
	prev := make([]int, width)
	for i := range prev {
		prev[i] = g.AddNode(fmt.Sprintf("in%d", i), dfg.OpInput, bits)
	}
	for l := 0; l < levels; l++ {
		op := dfg.OpAdd
		if l%2 == 1 {
			op = dfg.OpMul
		}
		cur := make([]int, width)
		for i := 0; i < width; i++ {
			id := g.AddNode(fmt.Sprintf("n%d_%d", l, i), op, bits)
			g.MustConnect(prev[i], id)
			g.MustConnect(prev[(i+1)%width], id)
			cur[i] = id
		}
		prev = cur
	}
	for i, id := range prev {
		out := g.AddNode(fmt.Sprintf("out%d", i), dfg.OpOutput, bits)
		g.MustConnect(id, out)
	}
	return g
}
