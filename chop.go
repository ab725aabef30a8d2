// Package chop is a Go reproduction of CHOP, the constraint-driven
// system-level partitioner of Kucukcakar and Parker (USC CEng 90-26 / DAC
// 1991). It partitions behavioral specifications — acyclic data-flow graphs
// of operations — onto multiple chips while satisfying hard constraints on
// per-chip area, pin count, system performance (initiation interval) and
// system delay.
//
// The package is a stable facade over the implementation packages:
//
//   - dfg: behavioral specifications (data-flow graphs) and benchmarks
//   - lib: component libraries (the paper's Table 1)
//   - chip: chip packages and chip sets (the paper's Table 2)
//   - mem: memory blocks and their chip assignment
//   - bad: the Behavioral Area-Delay predictor
//   - core: the partitioner itself (integration, feasibility, heuristics)
//   - kl: a Kernighan-Lin min-cut baseline
//   - experiments: the paper's evaluation (Tables 3-6, Figures 7-8)
//
// A minimal session mirrors the paper's method: describe the behavior,
// partition it, pick a chip set, and ask CHOP whether the partitioning is
// feasible:
//
//	g := chop.ARLatticeFilter(16)
//	p := &chop.Partitioning{
//		Graph:    g,
//		Parts:    chop.LevelPartitions(g, 2),
//		PartChip: []int{0, 1},
//		Chips:    chop.NewChipSet(2, chop.MOSISPackages()[1], 4),
//	}
//	cfg := chop.Config{
//		Lib:    chop.Table1Library(),
//		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
//		Constraints: chop.Constraints{
//			Perf:  chop.Constraint{Bound: 30000, MinProb: 1},
//			Delay: chop.Constraint{Bound: 30000, MinProb: 0.8},
//		},
//	}
//	res, preds, err := chop.Run(p, cfg, chop.Iterative)
package chop

import (
	"chop/internal/advisor"
	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/cosim"
	"chop/internal/dfg"
	"chop/internal/dist"
	"chop/internal/hlspec"
	"chop/internal/kl"
	"chop/internal/lib"
	"chop/internal/mem"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/rtl"
	"chop/internal/serve"
	"chop/internal/sim"
	"chop/internal/stats"
)

// Behavioral specification types (package dfg).
type (
	// Graph is an acyclic data-flow graph: the behavioral specification.
	Graph = dfg.Graph
	// Node is one operation in a Graph.
	Node = dfg.Node
	// Edge is one data dependency in a Graph.
	Edge = dfg.Edge
	// Op identifies an operation type.
	Op = dfg.Op
)

// Operation types.
const (
	OpInput  = dfg.OpInput
	OpOutput = dfg.OpOutput
	OpAdd    = dfg.OpAdd
	OpSub    = dfg.OpSub
	OpMul    = dfg.OpMul
	OpDiv    = dfg.OpDiv
	OpCmp    = dfg.OpCmp
	OpMemRd  = dfg.OpMemRd
	OpMemWr  = dfg.OpMemWr
)

// NewGraph returns an empty behavioral specification.
func NewGraph(name string) *Graph { return dfg.New(name) }

// Benchmark builders.
var (
	// ARLatticeFilter is the paper's AR lattice filter (Fig. 6 class).
	ARLatticeFilter = dfg.ARLatticeFilter
	// EllipticWaveFilter is the fifth-order elliptic wave filter benchmark.
	EllipticWaveFilter = dfg.EllipticWaveFilter
	// FIR is an n-tap FIR filter benchmark.
	FIR = dfg.FIR
	// DiffEq is the HAL differential-equation benchmark.
	DiffEq = dfg.DiffEq
	// LevelPartitions splits a graph into n level-ordered partitions of
	// roughly equal operation count (always acyclic).
	LevelPartitions = dfg.LevelPartitions
)

// Component library types (package lib).
type (
	// Library is a component library (modules + register and mux cells).
	Library = lib.Library
	// Module is one library component.
	Module = lib.Module
	// ModuleSet is one module choice per operation type.
	ModuleSet = lib.ModuleSet
)

var (
	// Table1Library is the paper's Table 1 component library.
	Table1Library = lib.Table1Library
	// ExtendedLibrary adds subtract/divide/compare entries to Table 1.
	ExtendedLibrary = lib.ExtendedLibrary
)

// Chip types (package chip).
type (
	// ChipPackage is a physical chip package (the paper's Table 2 rows).
	ChipPackage = chip.Package
	// Chip is one chip instance in the target set.
	Chip = chip.Chip
	// ChipSet is the multi-chip target.
	ChipSet = chip.Set
)

var (
	// MOSISPackages is the paper's Table 2 package subset.
	MOSISPackages = chip.MOSISPackages
	// NewChipSet builds n identical chips from a package.
	NewChipSet = chip.NewUniformSet
)

// Memory types (package mem).
type (
	// MemBlock is one memory module.
	MemBlock = mem.Block
	// MemSystem is the set of memory blocks plus chip assignment.
	MemSystem = mem.System
	// MemAssignment maps memory block names to chip indices.
	MemAssignment = mem.Assignment
)

// Statistical prediction types (package stats).
type (
	// Triplet is a lower-bound / most-likely / upper-bound estimate.
	Triplet = stats.Triplet
	// Constraint is a probabilistic hard upper bound.
	Constraint = stats.Constraint
)

// Predictor types (package bad).
type (
	// Clocks derives the datapath and transfer clocks from the main clock.
	Clocks = bad.Clocks
	// Style selects the architecture style (single/multi-cycle,
	// pipelined/non-pipelined, testability).
	Style = bad.Style
	// Design is one predicted partition implementation.
	Design = bad.Design
	// PredictConfig parameterizes a standalone BAD prediction.
	PredictConfig = bad.Config
	// PredictResult is the outcome of a BAD prediction.
	PredictResult = bad.Result
	// DesignStyle distinguishes pipelined from non-pipelined designs.
	DesignStyle = bad.DesignStyle
	// PredictCache memoizes BAD predictions under a content key; attach
	// one via Config.PredictCache (or PredictConfig.Cache) to stop
	// advisor move loops and repeated evaluations from re-predicting
	// unchanged partitions. Safe for concurrent use.
	PredictCache = bad.PredictCache
	// PredictCacheStats is a hit/miss snapshot of a PredictCache.
	PredictCacheStats = bad.CacheStats
)

// Design styles.
const (
	NonPipelined = bad.NonPipelined
	Pipelined    = bad.Pipelined
)

// Predict runs BAD standalone on one partition graph.
func Predict(g *Graph, cfg PredictConfig) (PredictResult, error) { return bad.Predict(g, cfg) }

var (
	// NewPredictCache builds an LRU prediction cache bounded to capacity
	// entries (<= 0 selects the default of 512).
	NewPredictCache = bad.NewPredictCache
	// PredictCacheKey computes the content key a PredictCache files a
	// prediction under (partition structure + library + style + bounds).
	PredictCacheKey = bad.CacheKey
)

// Partitioner types (package core).
type (
	// Partitioning is a tentative partitioning onto a chip set.
	Partitioning = core.Partitioning
	// Config parameterizes a CHOP run.
	Config = core.Config
	// Constraints are the system-level hard constraints.
	Constraints = core.Constraints
	// GlobalDesign is one integrated multi-chip implementation.
	GlobalDesign = core.GlobalDesign
	// SearchResult aggregates one heuristic run.
	SearchResult = core.SearchResult
	// SpacePoint is one explored design point (Figures 7/8 dots).
	SpacePoint = core.SpacePoint
	// Heuristic selects the search strategy.
	Heuristic = core.Heuristic
)

// The paper's two search heuristics.
const (
	// Enumeration explicitly enumerates implementation combinations ("E").
	Enumeration = core.Enumeration
	// Iterative is the Figure-5 serialization algorithm ("I").
	Iterative = core.Iterative
)

// Run predicts every partition with BAD and searches for feasible global
// implementations with the chosen heuristic.
func Run(p *Partitioning, cfg Config, h Heuristic) (SearchResult, []PredictResult, error) {
	return core.Run(p, cfg, h)
}

// PredictPartitions runs BAD on every partition of p.
func PredictPartitions(p *Partitioning, cfg Config) ([]PredictResult, error) {
	return core.PredictPartitions(p, cfg)
}

// Search runs a heuristic over precomputed per-partition predictions.
func Search(p *Partitioning, cfg Config, preds []PredictResult, h Heuristic) (SearchResult, error) {
	return core.Search(p, cfg, preds, h)
}

// Baseline partitioner (package kl).
var (
	// KLBisect is Kernighan-Lin bisection minimizing cut bits.
	KLBisect = kl.Bisect
	// KLKWay recursively bisects into k parts.
	KLKWay = kl.KWay
	// KLCutBits measures a bisection's cut size.
	KLCutBits = kl.CutBits
	// KLValidateAcyclic reports whether a partitioning is admissible.
	KLValidateAcyclic = kl.ValidateAcyclic
)

// Synthesis and verification (packages rtl and sim).
type (
	// Netlist is a bound register-transfer structure of one partition
	// implementation.
	Netlist = rtl.Netlist
	// SimCoeffs supplies constants for coefficient operations during
	// simulation.
	SimCoeffs = sim.Coeffs
)

var (
	// Bind synthesizes a predicted design into an RTL netlist.
	Bind = rtl.Bind
	// CosimVerify synthesizes one design per partition and checks the
	// composed multi-chip system against the behavioral golden model.
	CosimVerify = cosim.Verify
	// CosimVerifyBest runs CHOP and verifies its fastest all-non-pipelined
	// feasible design end to end.
	CosimVerifyBest = cosim.VerifyBest
	// CosimVerifyStream streams samples through a multi-chip system whose
	// partitions may be pipelined.
	CosimVerifyStream = cosim.VerifyStream
	// OpCyclesFor derives the per-op cycle counts a design was predicted
	// with, for use with Bind.
	OpCyclesFor = rtl.OpCyclesFor
	// Evaluate executes a behavior on concrete inputs (golden model).
	Evaluate = sim.Evaluate
	// RunNetlist interprets a bound netlist cycle by cycle.
	RunNetlist = sim.RunNetlist
	// VerifyNetlist checks a netlist against the golden model.
	VerifyNetlist = sim.VerifyNetlist
)

// Observability types (package obs). All are nil-safe: a Config with a nil
// Trace and nil Metrics runs the pipeline with near-zero overhead.
type (
	// Tracer emits hierarchical timed spans and structured events for a
	// CHOP run; attach one via Config.Trace.
	Tracer = obs.Tracer
	// TraceSpan is one timed stage of a traced run.
	TraceSpan = obs.Span
	// TraceEvent is one trace record (begin/end/point) as serialized to
	// JSONL by WriterSink and decoded by ReplayTrace.
	TraceEvent = obs.Event
	// TraceSink receives trace events; see NewWriterSink and
	// NewCountingSink.
	TraceSink = obs.Sink
	// Metrics is a counter and latency-histogram registry; attach one via
	// Config.Metrics.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time copy of a Metrics registry.
	MetricsSnapshot = obs.Snapshot
	// TraceReport is the aggregation ReplayTrace builds from a trace.
	TraceReport = obs.Report
	// PushSink adapts a plain func(TraceEvent) into a TraceSink.
	PushSink = obs.PushSink
	// FileSink is a buffered JSONL sink backed by a file; Close flushes.
	FileSink = obs.FileSink
	// Profiler manages CPU/heap/block profiles around a run; see
	// StartProfiler.
	Profiler = obs.Profiler
	// ProfileConfig names the profile output files for StartProfiler.
	ProfileConfig = obs.ProfileConfig
	// RingSink is a bounded trace buffer with replay and live fan-out:
	// Subscribe returns the retained events plus a channel of what comes
	// next, and slow subscribers lose their oldest pending events rather
	// than stalling the run (see RingSub.Dropped).
	RingSink = obs.RingSink
	// RingSub is one live subscription to a RingSink.
	RingSub = obs.RingSub
	// BuildInfo is the binary's build identity (go version, VCS revision)
	// as read from the runtime's embedded build metadata.
	BuildInfo = obs.BuildInfo
	// RunStats is the lock-cheap per-shard search progress tracker;
	// attach one via Config.Stats and read it live with Snapshot while
	// the search runs.
	RunStats = obs.RunStats
	// RunStatsSnapshot is one consistent point-in-time fold of a
	// RunStats: aggregate progress, rates, ETA, the per-shard table,
	// cache traffic, checkpoint lag and the slowest-trial exemplars.
	RunStatsSnapshot = obs.RunStatsSnapshot
	// ShardSnapshot is one shard's row in a RunStatsSnapshot.
	ShardSnapshot = obs.ShardSnapshot
	// SlowTrial is one retained slowest-trial exemplar (duration, shard,
	// feasibility, rejection reason).
	SlowTrial = obs.Exemplar
	// StatsSnapshotter samples a Metrics registry (and optionally a
	// RunStats) on a fixed cadence into a bounded in-memory ring and,
	// when configured with a writer, a JSONL time series.
	StatsSnapshotter = obs.Snapshotter
	// StatsSnapshotterOptions configures a StatsSnapshotter.
	StatsSnapshotterOptions = obs.SnapshotterOptions
	// StatsRecord is one sampled point of the telemetry time series:
	// counter deltas over the interval, gauges, and the run fold.
	StatsRecord = obs.StatsRecord
)

var (
	// NewTracer wraps a sink into a Tracer (nil sink yields a disabled,
	// nil Tracer).
	NewTracer = obs.New
	// NewWriterSink streams events as JSON Lines to a writer.
	NewWriterSink = obs.NewWriterSink
	// NewCountingSink counts events by kind and name without storing them.
	NewCountingSink = obs.NewCountingSink
	// NewFileSink opens a buffered JSONL trace file (remember to Close).
	NewFileSink = obs.NewFileSink
	// NewTeeSink fans events out to several sinks (nils dropped; returns
	// nil when none remain, which disables tracing).
	NewTeeSink = obs.NewTeeSink
	// NewMetrics returns an empty metrics registry. Its WriteProm/PromText
	// methods render Prometheus text exposition; Vars renders an
	// expvar-style flat map.
	NewMetrics = obs.NewMetrics
	// StartProfiler starts the profiles named in a ProfileConfig and
	// returns a Profiler whose Stop writes them out (nil-safe when the
	// config is empty).
	StartProfiler = obs.StartProfiler
	// ReplayTrace aggregates a JSONL trace stream into a TraceReport;
	// its Format method renders the human-readable explanation.
	ReplayTrace = obs.Replay
	// NewRingSink builds a bounded replay/fan-out trace buffer (capacity
	// <= 0 selects the default 4096 events).
	NewRingSink = obs.NewRingSink
	// ReadBuildInfo reads the binary's build identity (never fails;
	// degrades to "unknown" fields).
	ReadBuildInfo = obs.ReadBuildInfo
	// RecordBuildInfo exposes the build identity on a Metrics registry as
	// the chop_build_info{go_version,vcs_revision} gauge.
	RecordBuildInfo = obs.RecordBuildInfo
	// NewRunTracer wraps a sink into a Tracer whose every event is
	// stamped with a run tag, so traces from several runs can share one
	// stream and still replay separately (nil sink yields a nil Tracer).
	NewRunTracer = obs.NewRunTracer
	// NewRunStats allocates a per-shard search progress tracker; attach
	// it via Config.Stats.
	NewRunStats = obs.NewRunStats
	// NewStatsSnapshotter builds a telemetry sampler; call Run to sample
	// on an interval and Stop to take the final sample and flush.
	NewStatsSnapshotter = obs.NewSnapshotter
)

// Distributed tracing (package obs): W3C trace context over process
// boundaries, globally-unique span IDs, and offline stitching of several
// processes' JSONL traces into one tree. The serve API speaks standard
// `traceparent` headers; `chop trace` is the CLI stitcher.
type (
	// TraceContext is a W3C trace-context triple (trace ID, span ID,
	// sampled flag) as carried by `traceparent` headers.
	TraceContext = obs.TraceContext
	// TracerOptions parameterizes NewTracerWith: a run tag to stamp on
	// every event and a remote TraceContext to join (its trace ID is
	// adopted; its span ID becomes the parent of root spans).
	TracerOptions = obs.TracerOptions
	// StitchSource is one process's trace stream handed to Stitch,
	// labeled with a source name (usually the file name).
	StitchSource = obs.StitchSource
	// StitchTrace is one stitched trace: the span trees of every source
	// that recorded events under one trace ID, clock-aligned.
	StitchTrace = obs.StitchTrace
	// StitchSpan is one span in a StitchTrace, with its source
	// attribution and children.
	StitchSpan = obs.StitchSpan
	// CriticalSegment is one segment of a StitchTrace's critical path.
	CriticalSegment = obs.CriticalSegment
	// ServeClient is a small client for the serve API that injects the
	// caller's TraceContext (from the request context) as a traceparent
	// header and surfaces error envelopes with their request IDs.
	ServeClient = serve.Client
	// ServeSubmitSpec is the run-submission body ServeClient.Submit sends.
	ServeSubmitSpec = serve.SubmitSpec
)

// TraceparentHeader is the W3C header name ("traceparent").
const TraceparentHeader = obs.TraceparentHeader

var (
	// NewTracerWith wraps a sink into a Tracer with explicit
	// TracerOptions — joining a remote trace and/or tagging a run (nil
	// sink yields a disabled, nil Tracer). NewTracer is the zero-options
	// shorthand.
	NewTracerWith = obs.NewTracer
	// ParseTraceparent parses a `traceparent` header value.
	ParseTraceparent = obs.ParseTraceparent
	// InjectTraceparent sets the traceparent header from a TraceContext.
	InjectTraceparent = obs.InjectTraceparent
	// TraceparentFromHeader extracts and validates a TraceContext from
	// request headers.
	TraceparentFromHeader = obs.TraceparentFromHeader
	// NewTraceID mints a 32-hex W3C trace ID; NewSpanID a 16-hex span ID
	// (process-unique, one atomic add per call).
	NewTraceID = obs.NewTraceID
	NewSpanID  = obs.NewSpanID
	// WithTraceContext / TraceContextFrom carry a TraceContext through a
	// context.Context (ServeClient injects it from there).
	WithTraceContext = obs.WithTraceContext
	TraceContextFrom = obs.TraceContextFrom
	// Stitch merges several processes' trace streams into clock-aligned
	// span trees, demultiplexed by trace ID; FormatStitch renders the
	// waterfall + critical path, OrphanCount counts spans whose recorded
	// parent no source contains, and Perfetto exports Chrome trace-event
	// JSON for ui.perfetto.dev. `chop trace` drives all four.
	Stitch       = obs.Stitch
	FormatStitch = obs.FormatStitch
	OrphanCount  = obs.OrphanCount
	Perfetto     = obs.Perfetto
)

// Service plane types (package serve): an embeddable HTTP server that runs
// partitioning jobs through a bounded worker pool, streams their traces as
// Server-Sent Events, and exposes the metrics registry on /metrics. `chop
// serve` is the CLI front end.
type (
	// ServeOptions parameterizes NewServer (address, concurrency bound,
	// queue depth, ring capacity, shutdown grace, logger, job table).
	ServeOptions = serve.Options
	// Server is the CHOP service plane; mount Handler() or call
	// ListenAndServe, stop with Drain.
	Server = serve.Server
	// ServeRegistry supervises submitted runs (worker pool + state).
	ServeRegistry = serve.Registry
	// ServeJob defines one run kind: an executable plus an optional
	// submission-time validator.
	ServeJob = serve.Job
	// ServeJobContext carries the per-run tracer, metrics and logger into
	// a ServeJob.
	ServeJobContext = serve.JobContext
	// RunState is a run's lifecycle state (queued/running/done/failed/
	// canceled).
	RunState = serve.State
	// RunStatus is the API form of one run's state and result.
	RunStatus = serve.RunStatus
)

var (
	// NewServer builds the service plane and starts its worker pool.
	NewServer = serve.New
	// DefaultServeJobs is the built-in run-kind table: eval, synth, exp1,
	// exp2, shard.
	DefaultServeJobs = serve.DefaultJobs
)

// Distributed search (package dist): a lease-based shard coordinator that
// farms one planned search across a fleet of serve workers and merges the
// results byte-identically to a serial run, through worker failures,
// stragglers (epoch-fenced reassignment, work stealing) and coordinator
// restarts (signed checkpoints). `chop search -distributed` is the CLI
// front end.
type (
	// DistOptions configures a DistCoordinator: the fleet, lease timing
	// (TTL, hard cap, steal threshold), shard geometry, checkpointing and
	// observability hooks.
	DistOptions = dist.Options
	// DistCoordinator drives one distributed search; build with
	// NewDistCoordinator, execute with Run.
	DistCoordinator = dist.Coordinator
	// ShardPlan is the deterministic shard decomposition of one search,
	// signed so coordinator and workers can prove they agree.
	ShardPlan = core.ShardPlan
	// ShardRequest / ShardResponse are the serve "shard" job's wire forms.
	ShardRequest  = serve.ShardRequest
	ShardResponse = serve.ShardResponse
)

var (
	// NewDistCoordinator parses a spec (the same JSON chop eval takes) and
	// validates the fleet configuration.
	NewDistCoordinator = dist.New
	// PlanShards computes the signed shard decomposition a coordinator
	// and its workers must agree on.
	PlanShards = core.PlanShards
	// SearchShards executes a subset of a plan's shards locally.
	SearchShards = core.SearchShards
	// MergeShardResults folds per-shard results in visit order into the
	// merged SearchResult.
	MergeShardResults = core.MergeShardResults
)

// Fault-tolerance types (package resilience): panic isolation, retries
// with backoff, versioned checkpoints and the fault-injection harness.
// Config.CheckpointPath/Resume and Config.Inject wire them into the search
// pipeline; ServeOptions.DefaultJobTimeout and ServeOptions.Inject into the
// service plane.
type (
	// Injector injects faults (errors, panics, stalls) at named sites for
	// chaos testing; a nil *Injector is inert.
	Injector = resilience.Injector
	// PanicError is a panic recovered by a guard, with site and stack.
	PanicError = resilience.PanicError
	// InjectedError marks a fault produced by an Injector.
	InjectedError = resilience.InjectedError
	// RetryPolicy shapes Retry: attempts, capped exponential backoff,
	// deterministic jitter.
	RetryPolicy = resilience.RetryPolicy
	// SubmitOptions carries per-run policy (deadline, checkpoint name —
	// resolved inside the registry's CheckpointDir) into
	// ServeRegistry.SubmitWith.
	SubmitOptions = serve.SubmitOptions
)

var (
	// GuardPanics runs fn, converting a panic into a *PanicError.
	GuardPanics = resilience.Guard
	// IsPanic extracts the *PanicError from an error chain.
	IsPanic = resilience.IsPanic
	// Retry runs fn under a RetryPolicy until success, a Permanent error,
	// context cancellation, or exhaustion.
	Retry = resilience.Retry
	// PermanentError marks an error as non-retryable for Retry.
	PermanentError = resilience.Permanent
	// IsInjectedFault reports whether an error came from an Injector.
	IsInjectedFault = resilience.IsInjected
	// ParseInjector parses a fault-injection spec such as
	// "seed=7,core.trial=error:@10,serve.job=panic:0.05" (empty: nil).
	ParseInjector = resilience.Parse
	// InjectorFromEnv parses $CHOP_FAULT_INJECT.
	InjectorFromEnv = resilience.FromEnv
	// SaveCheckpoint / LoadCheckpoint read and write versioned, atomically
	// replaced JSON checkpoint files.
	SaveCheckpoint = resilience.SaveCheckpoint
	LoadCheckpoint = resilience.LoadCheckpoint
)

// ErrJobTimeout is the failure cause of a served run that exhausted its
// wall-clock deadline.
var ErrJobTimeout = serve.ErrJobTimeout

// Advisor types (package advisor).
type (
	// AdvisorSession is an interactive partitioning session.
	AdvisorSession = advisor.Session
)

var (
	// NewAdvisor starts an interactive session.
	NewAdvisor = advisor.New
	// Improve hill-climbs over operation migrations.
	Improve = advisor.Improve
	// CompileHLS compiles the textual behavioral language (with loop
	// unrolling) to a data-flow graph.
	CompileHLS = hlspec.Compile
	// DCT8 is an 8-point DCT butterfly benchmark.
	DCT8 = dfg.DCT8
	// MatMul is an n x n matrix-vector multiply benchmark.
	MatMul = dfg.MatMul
	// StressDFG builds the layered synthetic stress graph (levels x width
	// nodes of the given bit width).
	StressDFG = dfg.Stress
)
