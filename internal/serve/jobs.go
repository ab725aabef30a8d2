package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"chop/internal/core"
	"chop/internal/cosim"
	"chop/internal/experiments"
	"chop/internal/obs"
	"chop/internal/spec"
)

// DefaultJobs maps the service's run kinds onto the pipeline:
//
//	eval   evaluate a partitioning spec (same JSON the CLI's -f takes)
//	synth  evaluate, then synthesize + co-simulate the fastest
//	       all-non-pipelined feasible design to Verilog
//	exp1   regenerate paper experiment 1 (Tables 3 and 4)
//	exp2   regenerate paper experiment 2 (Tables 5 and 6)
//	shard  execute named shards of a planned search for a distributed
//	       coordinator (see internal/dist and shard.go)
func DefaultJobs() map[string]Job {
	return map[string]Job{
		"eval":  specJob(evalJob),
		"synth": specJob(synthJob),
		"exp1":  expJob(1),
		"exp2":  expJob(2),
		"shard": shardJob,
	}
}

// specJob makes a run kind of a body that runs a partitioning spec. The
// spec is decoded at submission, so a malformed problem is rejected with
// 400 instead of becoming a failed run, and each run of the body uses that
// one decode.
func specJob(run func(context.Context, *spec.Problem, JobContext) (any, error)) Job {
	return func(raw json.RawMessage) (JobFunc, error) {
		if len(raw) == 0 {
			return nil, fmt.Errorf("spec required for this run kind")
		}
		prob, err := spec.Parse(raw)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, jc JobContext) (any, error) { return run(ctx, prob, jc) }, nil
	}
}

// DesignSummary is the API form of one feasible non-inferior design.
type DesignSummary struct {
	IIMain    int     `json:"iiMain"`
	DelayMain int     `json:"delayMain"`
	ClockNS   float64 `json:"clockNS"`
	PerfNS    float64 `json:"perfNS"`
	DelayNS   float64 `json:"delayNS"`
}

// EvalResult is the result JSON of an eval run.
type EvalResult struct {
	Graph          string           `json:"graph"`
	Partitions     int              `json:"partitions"`
	Chips          int              `json:"chips"`
	Heuristic      string           `json:"heuristic"`
	Trials         int              `json:"trials"`
	FeasibleTrials int              `json:"feasibleTrials"`
	Feasible       bool             `json:"feasible"`
	Best           []DesignSummary  `json:"best,omitempty"`
	Rejects        map[string]int64 `json:"rejects,omitempty"`
	ElapsedMS      float64          `json:"elapsedMS"`
}

func evalJob(ctx context.Context, prob *spec.Problem, jc JobContext) (any, error) {
	_, _, summary, err := runSpec(ctx, prob, jc)
	if err != nil {
		return nil, err
	}
	return summary, nil
}

// runSpec runs a decoded problem under a copy of its config wired to the
// job, and summarizes the result. It also returns that config, which synth
// binds the chosen design with.
func runSpec(ctx context.Context, prob *spec.Problem, jc JobContext) (core.SearchResult, core.Config, *EvalResult, error) {
	cfg := prob.Config
	jc.wire(ctx, &cfg)
	if jc.Checkpoint != "" {
		// Resume is unconditional: a matching log from an interrupted
		// earlier run continues it, anything else starts fresh.
		cfg.CheckpointPath = jc.Checkpoint
		cfg.Resume = true
	}
	t0 := time.Now()
	res, _, err := core.Run(prob.Partitioning, cfg, prob.Heuristic)
	if err != nil {
		return res, cfg, nil, err
	}
	return res, cfg, summarize(res, prob, jc.Stats, time.Since(t0)), nil
}

// wire points cfg at the job's context, observability planes and fault
// injector. A config that brings no prediction cache shares the
// server-wide one, so repeated evaluations of the same partitions skip BAD.
func (jc JobContext) wire(ctx context.Context, cfg *core.Config) {
	cfg.Ctx = ctx
	cfg.Trace = jc.Tracer
	cfg.Metrics = jc.Metrics
	cfg.Stats = jc.Stats
	cfg.Phases = jc.Phases
	cfg.Inject = jc.Inject
	if cfg.PredictCache == nil {
		cfg.PredictCache = jc.Cache
	}
}

// summarize reduces a search result to the API form, lifting the run's
// rejections per reason from its run stats into the result so clients see
// why trials died without scraping /metrics.
func summarize(res core.SearchResult, prob *spec.Problem, stats *obs.RunStats, elapsed time.Duration) *EvalResult {
	out := &EvalResult{
		Graph:          prob.Partitioning.Graph.Name,
		Partitions:     prob.Partitioning.NumParts(),
		Chips:          len(prob.Partitioning.Chips.Chips),
		Heuristic:      prob.Heuristic.String(),
		Trials:         res.Trials,
		FeasibleTrials: res.FeasibleTrials,
		Feasible:       len(res.Best) > 0,
		Rejects:        stats.Snapshot().Rejects,
		ElapsedMS:      float64(elapsed.Nanoseconds()) / 1e6,
	}
	for _, b := range res.Best {
		out.Best = append(out.Best, DesignSummary{
			IIMain:    b.IIMain,
			DelayMain: b.DelayMain,
			ClockNS:   b.Clock.ML,
			PerfNS:    b.PerfNS.ML,
			DelayNS:   b.DelayNS.ML,
		})
	}
	return out
}

// SynthResult is the result JSON of a synth run: the eval summary plus the
// verified structural Verilog of each partition.
type SynthResult struct {
	EvalResult
	Verified bool     `json:"verified"`
	Verilog  []string `json:"verilog"`
}

func synthJob(ctx context.Context, prob *spec.Problem, jc JobContext) (any, error) {
	res, cfg, summary, err := runSpec(ctx, prob, jc)
	if err != nil {
		return nil, err
	}
	syn, err := cosim.Synthesize(prob.Partitioning, cfg, res.Best)
	if err != nil {
		return nil, err
	}
	out := &SynthResult{EvalResult: *summary, Verified: true}
	for pi, nl := range syn.Netlists {
		out.Verilog = append(out.Verilog, nl.Verilog(syn.Subgraphs[pi]))
	}
	jc.Log.Info("synthesized design", "partitions", len(out.Verilog),
		"iiMain", syn.Design.IIMain, "delayMain", syn.Design.DelayMain)
	return out, nil
}

// ExpResult is the result JSON of an exp1/exp2 run: the paper's tables in
// machine-readable form.
type ExpResult struct {
	Experiment int                     `json:"experiment"`
	Name       string                  `json:"name"`
	Counts     []experiments.CountsRow `json:"counts"`
	Results    []experiments.ResultRow `json:"results"`
	// Tables carries the same data pre-rendered in the CLI's table layout.
	Tables map[string]string `json:"tables"`
}

// expJob regenerates one paper experiment; it ignores its spec.
func expJob(n int) Job {
	body := func(ctx context.Context, jc JobContext) (any, error) {
		e := experiments.New(n)
		jc.wire(ctx, &e.Cfg)
		counts, err := e.PredictionCounts()
		if err != nil {
			return nil, err
		}
		rows, err := e.Results()
		if err != nil {
			return nil, err
		}
		tn := 3
		if n == 2 {
			tn = 5
		}
		return &ExpResult{
			Experiment: n,
			Name:       e.Name,
			Counts:     counts,
			Results:    rows,
			Tables: map[string]string{
				fmt.Sprintf("table%d", tn):   experiments.FormatCounts(counts),
				fmt.Sprintf("table%d", tn+1): experiments.FormatResults(rows),
			},
		}, nil
	}
	return func(json.RawMessage) (JobFunc, error) { return body, nil }
}
