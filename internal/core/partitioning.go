// Package core implements CHOP itself: the partitioning model, the system
// integration predictions (data-transfer modules, pin sharing, urgency
// scheduling, buffer sizing), the probabilistic feasibility analysis, and
// the two search heuristics — explicit enumeration and the iterative
// serialization algorithm of the paper's Figure 5 — with the two-level
// pruning described in section 2.1.
package core

import (
	"context"
	"fmt"
	"runtime"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/mem"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/stats"
)

// Partitioning is a tentative partitioning of a behavioral specification
// onto a chip set (paper section 2.2, fifth input group): node sets per
// partition and the assignment of partitions (and memory blocks) to chips.
type Partitioning struct {
	Graph *dfg.Graph
	// Parts holds the node IDs of each partition. Every FU-consuming node
	// of the graph must appear in exactly one partition; I/O marker nodes
	// belong to the external world and must not appear.
	Parts [][]int
	// PartChip maps partition index -> chip index. Multiple partitions may
	// share a chip.
	PartChip []int
	// Chips is the target chip set.
	Chips chip.Set
	// Mem is the memory system (may be empty).
	Mem mem.System
}

// NumParts returns the partition count.
func (p *Partitioning) NumParts() int { return len(p.Parts) }

// Assignment returns the node -> partition map.
func (p *Partitioning) Assignment() map[int]int {
	assign := make(map[int]int)
	for pi, set := range p.Parts {
		for _, id := range set {
			assign[id] = pi
		}
	}
	return assign
}

// Validate checks the structural rules of paper sections 2.3 and 2.4:
// partitions cover all compute nodes exactly once, are non-empty, contain
// no I/O markers, have chip assignments, and have no mutual data dependency
// (the partition-level dependency graph must be acyclic; cyclic data flow
// is still allowed among chips because several partitions may share a chip).
func (p *Partitioning) Validate() error {
	if p.Graph == nil {
		return fmt.Errorf("core: partitioning has no graph")
	}
	if err := p.Graph.Validate(); err != nil {
		return err
	}
	if err := p.Chips.Validate(); err != nil {
		return err
	}
	if len(p.Parts) == 0 {
		return fmt.Errorf("core: no partitions")
	}
	if len(p.PartChip) != len(p.Parts) {
		return fmt.Errorf("core: %d partitions but %d chip assignments",
			len(p.Parts), len(p.PartChip))
	}
	for pi, ci := range p.PartChip {
		if ci < 0 || ci >= len(p.Chips.Chips) {
			return fmt.Errorf("core: partition %d assigned to chip %d of %d",
				pi, ci, len(p.Chips.Chips))
		}
	}
	seen := make(map[int]int)
	for pi, set := range p.Parts {
		if len(set) == 0 {
			return fmt.Errorf("core: partition %d is empty", pi)
		}
		for _, id := range set {
			if id < 0 || id >= len(p.Graph.Nodes) {
				return fmt.Errorf("core: partition %d references node %d out of range", pi, id)
			}
			if op := p.Graph.Nodes[id].Op; !op.NeedsFU() && !op.IsMemory() {
				return fmt.Errorf("core: partition %d contains I/O marker node %q",
					pi, p.Graph.Nodes[id].Name)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("core: node %q in partitions %d and %d",
					p.Graph.Nodes[id].Name, prev, pi)
			}
			seen[id] = pi
		}
	}
	for _, n := range p.Graph.Nodes {
		if n.Op.NeedsFU() || n.Op.IsMemory() {
			if _, ok := seen[n.ID]; !ok {
				return fmt.Errorf("core: node %q not assigned to any partition", n.Name)
			}
		}
	}
	// No mutual data dependency between any two partitions: the partition
	// dependency relation must be acyclic (paper 2.3). Pairwise mutual
	// dependencies are the common case; check full acyclicity.
	dep := p.Graph.PartitionDAG(p.Assignment(), len(p.Parts))
	if cyc := findCycle(dep); cyc != "" {
		return fmt.Errorf("core: partitions have mutual data dependency (%s)", cyc)
	}
	if err := p.Mem.Validate(len(p.Chips.Chips)); err != nil {
		return err
	}
	return nil
}

// findCycle returns a description of a cycle in the boolean adjacency
// matrix, or "" when acyclic.
func findCycle(dep [][]bool) string {
	n := len(dep)
	color := make([]int, n) // 0 white, 1 gray, 2 black
	var stack []int
	var dfs func(int) string
	dfs = func(u int) string {
		color[u] = 1
		stack = append(stack, u)
		for v := 0; v < n; v++ {
			if !dep[u][v] {
				continue
			}
			if color[v] == 1 {
				return fmt.Sprintf("cycle through partitions %d and %d", v+1, u+1)
			}
			if color[v] == 0 {
				if s := dfs(v); s != "" {
					return s
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[u] = 2
		return ""
	}
	for u := 0; u < n; u++ {
		if color[u] == 0 {
			if s := dfs(u); s != "" {
				return s
			}
		}
	}
	return ""
}

// Subgraphs returns each partition's graph with its boundary made explicit:
// values arriving from outside appear as input markers (the paper assumes
// all partition inputs are available before execution starts, and they must
// be stored), values leaving feed output markers (handed to the transfer
// modules at birth).
func (p *Partitioning) Subgraphs() []*dfg.Graph {
	out := make([]*dfg.Graph, len(p.Parts))
	for i, set := range p.Parts {
		sub, _ := p.Graph.PartitionGraph(fmt.Sprintf("%s/P%d", p.Graph.Name, i+1), set)
		out[i] = sub
	}
	return out
}

// Constraints are the hard system-level constraints (paper section 2.2,
// sixth input group, and the feasibility criteria of section 3).
type Constraints struct {
	// Perf bounds the system initiation interval in nanoseconds.
	Perf stats.Constraint
	// Delay bounds the input-to-output system delay in nanoseconds.
	Delay stats.Constraint
	// Power bounds the total system power in milliwatts (extension; Bound
	// 0 disables).
	Power stats.Constraint
}

// Config parameterizes a CHOP run.
type Config struct {
	Lib         *lib.Library
	Style       bad.Style
	Clocks      bad.Clocks
	Constraints Constraints
	// KeepAll disables both pruning levels so the entire explorable design
	// space is retained (paper Figs. 7/8). Memory-hungry, as the paper
	// found out.
	KeepAll bool
	// MaxBusPins caps the natural bus width of a data-transfer module
	// (word-parallel buffer output); 0 selects the default of two 16-bit
	// words. The bus widens past the cap only when the data-clash bound
	// requires it.
	MaxBusPins int
	// MaxCombinations caps the explicit enumeration heuristic's
	// combination count; 0 keeps the default guard of 5,000,000.
	MaxCombinations int
	// Ctx optionally bounds the run: when it is cancelled (deadline, user
	// abort, server shutdown) the prediction and search loops stop at the
	// next trial boundary and return the context's error. Nil — the
	// default — runs to completion. The check is a single atomic load per
	// trial, invisible next to the integration work a trial performs.
	Ctx context.Context
	// Workers sizes the search's worker pool: 0 or 1 — the default — runs
	// the shards on the calling goroutine alone, N > 1 on N worker
	// goroutines, and any negative value uses GOMAXPROCS. Every count runs
	// the same shard engine and is deterministic: the SearchResult (Best
	// ordering, Trials, FeasibleTrials, and Space when KeepAll is set) is
	// identical at every worker count, and identical to the serial walk of
	// the paper's heuristics. See DESIGN.md, "Concurrency model".
	Workers int
	// PredictCache, when non-nil, memoizes bad.Predict results across runs
	// under their content key (partition structure + library + style +
	// bounds), so advisor move loops and repeated evaluations stop
	// re-predicting unchanged partitions. Safe to share between
	// concurrent runs and across differing configurations.
	PredictCache *bad.PredictCache
	// CheckpointPath, when set, makes the search engine append every
	// completed shard's result to an append-only shard log at this path
	// (see ShardLog): a header line with the plan signature, then one
	// fsynced JSON line per shard. An interrupted run (cancellation,
	// deadline, crash) leaves the log behind and restarts from it when
	// Resume is set; a successful run removes it. The shards are the
	// engine's own at every worker count, so checkpointing changes nothing
	// about the result (see DESIGN.md, "Concurrency model").
	CheckpointPath string
	// Resume loads CheckpointPath before searching and skips the shards
	// it records as complete. A missing file, a foreign file, or a log of
	// another plan (the problem, constraints or shard geometry changed)
	// silently falls back to a fresh search — a log can only ever be
	// replayed against the exact search that wrote it, so resumed results
	// are byte-identical to uninterrupted ones. A torn last record is
	// dropped and its shard re-run. Enumeration shard geometry derives
	// from Workers (Workers × 4 shards, one worker included), so an
	// enumeration checkpoint only resumes at the worker count that wrote
	// it; iterative shards are worker-independent and resume at any count.
	Resume bool
	// Inject is the fault-injection hook (chaos testing): when non-nil,
	// the instrumented sites — bad.predict, core.trial, checkpoint.save —
	// consult it and fail, panic or stall on demand. Nil — the default —
	// costs one pointer check per site.
	Inject *resilience.Injector
	// Trace receives hierarchical timed spans (Run → PredictPartitions →
	// per-partition BAD → Search) and structured events (each worker's
	// tally of trials, rejections and integrate time at every flush,
	// Figure-5 serialization step). Nil — the default — disables tracing
	// at near-zero cost.
	Trace *obs.Tracer
	// Metrics receives counters and latency histograms (trials by
	// rejection reason, integrate latency, urgency scheduling effort,
	// designs per partition). Nil disables metrics collection.
	Metrics *obs.Metrics
	// Stats, when non-nil, receives live per-shard search progress —
	// trials done/total, feasible counts, rejections per reason, the
	// slowest trials, throughput, checkpoint lag. It gets a search
	// worker's trials in batches, as Metrics and Phases do: at every shard
	// end and every few thousand trials, never per trial. The serve layer
	// polls it for /stats; `chop top` renders it. Stats never influence
	// the search: results with stats attached are byte-identical to
	// results without.
	Stats *obs.RunStats
	// Phases, when non-nil, attributes cost to named phases (predict,
	// cache-lookup, schedule, xfer, integrate, checkpoint) by wall time,
	// accumulating across searches. Like Stats, phase accounting never
	// influences the search — results with phases attached are
	// byte-identical to results without.
	Phases *obs.PhaseAccounter
}

// defaultBusPins is two 16-bit datapath words.
const defaultBusPins = 32

// badConfig derives the level-1 (per-partition) prediction configuration.
// The per-partition area bound is the optimistic largest usable chip area;
// partition latency is pruned against the system delay bound.
func (c Config) badConfig(chips chip.Set) bad.Config {
	maxArea := 0.0
	for _, ch := range chips.Chips {
		if a := ch.Pkg.ProjectArea(); a > maxArea {
			maxArea = a
		}
	}
	return bad.Config{
		Lib:     c.Lib,
		Style:   c.Style,
		Clocks:  c.Clocks,
		MaxArea: maxArea,
		Perf:    c.Constraints.Perf,
		Delay:   c.Constraints.Delay,
		KeepAll: c.KeepAll,
		Trace:   c.Trace,
		Metrics: c.Metrics,
		Cache:   c.PredictCache,
		Inject:  c.Inject,
		Phases:  c.Phases,
		Ctx:     c.Ctx,
	}
}

// searchWorkers resolves Config.Workers to a concrete worker count.
func (c Config) searchWorkers() int {
	switch {
	case c.Workers < 0:
		return runtime.GOMAXPROCS(0)
	case c.Workers <= 1:
		return 1
	default:
		return c.Workers
	}
}

// canceled returns the wrapped context error once Config.Ctx is done, nil
// while the run may continue. The happy path is one atomic load, and the
// pointer receiver spares the per-trial check a copy of the Config.
func (c *Config) canceled() error {
	if c.Ctx == nil {
		return nil
	}
	if err := c.Ctx.Err(); err != nil {
		return fmt.Errorf("core: run canceled: %w", err)
	}
	return nil
}

// PredictPartitions runs BAD on every partition (the first step of the
// paper's method, section 2.4) and returns the per-partition prediction
// results, fastest-first. Level-1 pruning is applied unless cfg.KeepAll.
func PredictPartitions(p *Partitioning, cfg Config) ([]bad.Result, error) {
	return predictPartitions(p, cfg, nil)
}

// predictPartitions is PredictPartitions with an optional parent span, so
// the prediction stage nests under Run when reached through it.
func predictPartitions(p *Partitioning, cfg Config, parent *obs.Span) ([]bad.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sp := obs.SpanUnder(cfg.Trace, parent, "PredictPartitions",
		obs.F("partitions", len(p.Parts)))
	defer cfg.Metrics.Timer("core.predict_partitions_us")()
	subs := p.Subgraphs()
	out := make([]bad.Result, len(subs))
	for i, sub := range subs {
		if err := cfg.canceled(); err != nil {
			sp.End(obs.F("error", err.Error()))
			return nil, err
		}
		bc := cfg.badConfig(p.Chips)
		psp := sp.Child("BAD", obs.F("partition", i+1), obs.F("nodes", len(sub.Nodes)))
		bc.Span = psp
		// Panic isolation: a predictor blowing up on one partition fails
		// the run with a structured error instead of killing the process.
		// The pprof label slices CPU profiles by the prediction stage.
		var r bad.Result
		var err error
		obs.DoLabeled(cfg.Ctx, func(context.Context) {
			err = guard(cfg.Metrics, "bad.predict", func() error {
				var perr error
				r, perr = bad.Predict(sub, bc)
				return perr
			})
		}, "phase", "predict")
		if err != nil {
			psp.End(obs.F("error", err.Error()))
			sp.End()
			return nil, fmt.Errorf("partition %d: %w", i+1, err)
		}
		psp.End(obs.F("total", r.Total), obs.F("unique", r.Unique),
			obs.F("kept", len(r.Designs)), obs.F("feasible", r.Feasible))
		cfg.Metrics.Observe("core.designs_per_partition", float64(len(r.Designs)))
		// An empty design list is level-1 feedback, not an error: no
		// implementation of this partition can meet the constraints, so
		// the search will simply find nothing.
		out[i] = r
	}
	sp.End()
	return out, nil
}
