// Command chop is the constraint-driven system-level partitioner CLI. It
// regenerates the paper's evaluation and evaluates user partitioning specs.
//
// Usage:
//
//	chop tables            print the paper's Table 1 (library) and Table 2 (packages)
//	chop exp1              run experiment 1 and print Tables 3 and 4
//	chop exp2              run experiment 2 and print Tables 5 and 6
//	chop graph [-g name]   print a benchmark data-flow graph (Fig. 6 class)
//	chop spec              print an example partitioning spec (JSON)
//	chop eval -f spec.json evaluate a partitioning spec
//	chop search -f spec.json  run the search; -distributed farms shards to a serve fleet
//	chop advise -f spec.json  interactive advisor session (commands on stdin)
//	chop explain -f trace.jsonl  replay a -trace file into a readable report
//	chop trace a.jsonl b.jsonl   stitch multi-process traces into one tree (-o perfetto exports for ui.perfetto.dev)
//	chop submit            submit a run to a serve instance, propagating W3C trace context
//	chop serve             start the HTTP service plane (runs, SSE traces, /metrics)
//	chop top               live terminal dashboard over a serve instance or a -stats-out file
//	chop version           print the binary's build identity
//
// The run-style commands (eval, synth, exp1, exp2, advise) share the
// observability flags: -trace <file> records a JSONL trace, -metrics
// prints the counter/histogram registry afterward, -prom <file> writes it
// in Prometheus text format, -progress prints a live progress line on
// stderr and -stats-out <file> appends the same run-stats snapshot as one
// JSON line, both every 500 ms (tail the file with 'chop top -f'), and
// -cpuprofile/-memprofile/-blockprofile collect runtime/pprof profiles.
// They also share the execution knobs: -workers selects the search
// parallelism (deterministic — any worker count produces the serial
// result) and -predict-cache memoizes BAD predictions in a bounded LRU.
//
// Performance is measured by the benchmark module under bench/ (`bash
// bench/run.sh`), not by this binary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"chop/internal/advisor"
	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/cosim"
	"chop/internal/dfg"
	"chop/internal/experiments"
	"chop/internal/hlspec"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/sim"
	"chop/internal/spec"
	"chop/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "tables":
		err = tables()
	case "exp1":
		err = experiment(1, os.Args[2:])
	case "exp2":
		err = experiment(2, os.Args[2:])
	case "graph":
		err = graph(os.Args[2:])
	case "spec":
		err = printSpec()
	case "eval":
		err = eval(os.Args[2:])
	case "search":
		err = searchCmd(os.Args[2:])
	case "advise":
		err = advise(os.Args[2:])
	case "explain":
		err = explain(os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	case "submit":
		err = submit(os.Args[2:])
	case "compile":
		err = compile(os.Args[2:])
	case "synth":
		err = synth(os.Args[2:])
	case "accuracy":
		err = accuracy()
	case "serve":
		err = serveCmd(os.Args[2:])
	case "top":
		err = top(os.Args[2:])
	case "version":
		err = version()
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "chop: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chop:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: chop <command>

  tables               print Table 1 (component library) and Table 2 (chip packages)
  exp1                 run paper experiment 1 (Tables 3 and 4)
  exp2                 run paper experiment 2 (Tables 5 and 6)
  graph [-g name]      print a benchmark graph (ar, ewf, fir, diffeq)
  spec                 print an example partitioning spec (JSON)
  eval -f spec.json    evaluate a partitioning spec
  search -f spec.json  run the design-space search and print/emit the merged
                       result (-json); -distributed -workers-url a,b farms
                       shards out to a chop serve fleet with lease-based
                       fault tolerance (-lease, -max-lease, -steal-after,
                       -shards, -max-lease-shards, -drain-grace, -poll,
                       -api-key) — byte-identical to the local run
  advise -f spec.json  interactive advisor session (commands on stdin)
  explain -f trace.jsonl  replay a trace into a per-stage time and rejection report
                       (-stats prints the search-statistics report instead)
  trace files...       stitch JSONL traces from multiple processes into merged
                       span trees: waterfall + critical-path attribution, or
                       -o perfetto for ui.perfetto.dev (-out file,
                       -fail-on-orphans gates on missing parents)
  submit               submit a spec to a serve instance and propagate W3C
                       trace context (-addr, -kind, -f spec.json, -trace-out
                       client.jsonl, -wait, -retry-for; prints the run id and
                       traceparent)
  compile -f prog.hls  compile a behavioral program (loops unrolled) and print its DFG
  synth -f spec.json   synthesize the fastest feasible design to RTL, verify it, emit Verilog
  accuracy             compare BAD predictions against bound netlists
  serve                start the HTTP service plane (-addr, -max-concurrent,
                       -queue, -grace, -predict-cache, -job-timeout,
                       -checkpoint-dir, -inject, -log-level, -log-json); submit
                       runs on POST /api/v1/runs, stream traces on
                       /api/v1/runs/{id}/events, scrape /metrics; -api-keys
                       file.json turns on multi-tenant admission control
                       (quotas, submit rates, priority preemption)
  top                  live terminal dashboard: poll a serve instance
                       (-addr, optionally -run id) or tail a -stats-out file
                       (-f stats.jsonl); -once renders a single frame
  version              print the binary's build identity (go version, revision)

eval, synth, exp1, exp2 and advise also accept:
  -trace file          record a JSONL trace of the run (replay with 'chop explain')
  -metrics             print the counter/histogram registry after the run
  -prom file           write the registry in Prometheus text format
  -progress            print a live progress line to stderr every 500ms
  -stats-out file      append the run-stats snapshot -progress prints (per-shard
                       progress, rates, ETA, rejections, phases, slowest
                       trials) as one JSON line every 500ms; watch live with
                       'chop top -f <file>'
  -cpuprofile file     write a CPU profile (flamegraph with 'go tool pprof')
  -memprofile file     write a heap profile taken after the run
  -blockprofile file   write a goroutine-blocking profile
  -workers n           search worker goroutines (1 = serial, 0 or negative =
                       all cores); parallel results are identical to serial
  -predict-cache n     memoize BAD predictions in an n-entry LRU cache
                       (0 disables, negative selects the default capacity)
  -checkpoint file     append each completed search shard to this log
                       (removed on success)
  -resume              resume from a matching -checkpoint log; mismatched
                       or missing logs fall back to a fresh start
  -inject spec         inject faults for chaos testing, e.g.
                       'seed=1,core.trial=error:@10,bad.predict=panic:0.01'
                       (sites: bad.predict, core.trial, serve.job, sink.write,
                       checkpoint.save; also via $CHOP_FAULT_INJECT)
`)
}

func tables() error {
	fmt.Println("Table 1: component library (3 micron)")
	fmt.Println(experiments.FormatTable1())
	fmt.Println("Table 2: MOSIS standard chip packages")
	fmt.Println(experiments.FormatTable2())
	return nil
}

func experiment(n int, args []string) error {
	fs := flag.NewFlagSet(fmt.Sprintf("exp%d", n), flag.ExitOnError)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	e := experiments.New(n)
	finish, err := of.attach(&e.Cfg)
	if err != nil {
		return err
	}
	err = func() error {
		fmt.Printf("Experiment %d: %s\n\n", n, e.Name)
		counts, err := e.PredictionCounts()
		if err != nil {
			return err
		}
		tn := 3
		if n == 2 {
			tn = 5
		}
		fmt.Printf("Table %d: statistics on the results from BAD\n", tn)
		fmt.Println(experiments.FormatCounts(counts))

		rows, err := e.Results()
		if err != nil {
			return err
		}
		fmt.Printf("Table %d: partitioning results\n", tn+1)
		fmt.Println(experiments.FormatResults(rows))
		return nil
	}()
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

func graph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	name := fs.String("g", "ar", "benchmark graph: ar, ewf, fir, diffeq")
	taps := fs.Int("taps", 8, "tap count for the fir benchmark")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var g *dfg.Graph
	switch *name {
	case "ar":
		g = dfg.ARLatticeFilter(16)
	case "ewf":
		g = dfg.EllipticWaveFilter(16)
	case "fir":
		g = dfg.FIR(*taps, 16)
	case "diffeq":
		g = dfg.DiffEq(16)
	default:
		return fmt.Errorf("unknown graph %q", *name)
	}
	fmt.Printf("graph %s: %d nodes, %d edges\n", g.Name, len(g.Nodes), len(g.Edges))
	for op, cnt := range g.OpCounts() {
		fmt.Printf("  %-6s x%d\n", op, cnt)
	}
	fmt.Println("nodes:")
	for _, n := range g.Nodes {
		fmt.Printf("  %-10s %-7s width=%d\n", n.Name, n.Op, n.Width)
	}
	fmt.Println("edges:")
	for _, e := range g.Edges {
		fmt.Printf("  %s -> %s (%d bits)\n", g.Nodes[e.From].Name, g.Nodes[e.To].Name, e.Width)
	}
	return nil
}

func printSpec() error {
	data, err := json.MarshalIndent(spec.Example(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// obsFlags carries the run flags shared by every run-style command (eval,
// synth, exp1, exp2, advise): tracing, metrics exposition, live progress,
// the runtime/pprof profiling trio, and the execution knobs (search
// parallelism, prediction memoization).
type obsFlags struct {
	trace    *string
	metrics  *bool
	prom     *string
	progress *bool

	statsOut *string

	cpuprofile   *string
	memprofile   *string
	blockprofile *string

	workers      *int
	predictCache *int

	checkpoint *string
	resume     *bool
	inject     *string

	traceparent *string

	fs *flag.FlagSet
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		fs:           fs,
		trace:        fs.String("trace", "", "record a JSONL trace of the run to this file"),
		metrics:      fs.Bool("metrics", false, "print the counter/histogram registry after the run"),
		prom:         fs.String("prom", "", "write Prometheus text-format metrics to this file after the run"),
		progress:     fs.Bool("progress", false, "print a live progress line to stderr every 500ms"),
		statsOut:     fs.String("stats-out", "", "append a JSONL run-stats snapshot (progress, shard table, phases) to this file every 500ms"),
		cpuprofile:   fs.String("cpuprofile", "", "write a CPU profile to this file"),
		memprofile:   fs.String("memprofile", "", "write a heap profile to this file"),
		blockprofile: fs.String("blockprofile", "", "write a goroutine-blocking profile to this file"),
		workers:      fs.Int("workers", 1, "search worker goroutines (1 = serial, 0 or negative = all cores); results are identical at any worker count"),
		predictCache: fs.Int("predict-cache", 0, "memoize BAD predictions in an LRU cache of this many entries (0 disables, negative = default capacity)"),
		checkpoint:   fs.String("checkpoint", "", "append each completed search shard to this log; removed on success"),
		resume:       fs.Bool("resume", false, "resume from a matching -checkpoint log (fresh start if absent or mismatched)"),
		inject:       fs.String("inject", "", "fault-injection spec, e.g. 'seed=1,core.trial=error:@10' (default: $"+resilience.EnvFaultInject+")"),
		traceparent:  fs.String("traceparent", "", "W3C traceparent of the calling span; this run's trace joins that distributed trace"),
	}
}

// explicitlySet reports whether the named flag appeared on the command
// line (flag.Visit walks only the set flags).
func (o *obsFlags) explicitlySet(name string) bool {
	set := false
	o.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// attach wires the requested tracer, metrics registry, run stats with
// their sampler, and profilers into cfg and returns a finish function to
// call once the run is over: it takes the final sample, prints the metrics
// dumps, flushes and closes the trace file and stops the profilers.
// Output files (-trace, -stats-out, -prom) are created eagerly so
// unwritable paths fail here, before the run.
func (o *obsFlags) attach(cfg *core.Config) (func() error, error) {
	// The execution knobs override a spec-file setting only when given on
	// the command line; otherwise whatever the spec put in cfg stands.
	if o.explicitlySet("workers") {
		if *o.workers <= 0 {
			cfg.Workers = -1 // Config: negative selects GOMAXPROCS
		} else {
			cfg.Workers = *o.workers
		}
	}
	if o.explicitlySet("predict-cache") {
		switch {
		case *o.predictCache > 0:
			cfg.PredictCache = bad.NewPredictCache(*o.predictCache)
		case *o.predictCache < 0:
			cfg.PredictCache = bad.NewPredictCache(0) // default capacity
		default:
			cfg.PredictCache = nil
		}
	}
	if *o.checkpoint != "" {
		cfg.CheckpointPath = *o.checkpoint
		cfg.Resume = *o.resume
	} else if *o.resume {
		return nil, fmt.Errorf("-resume requires -checkpoint")
	}
	// Fault injection parse errors surface here, before anything is opened.
	if inj, err := resilience.FromFlagOrEnv(*o.inject); err != nil {
		return nil, err
	} else if inj != nil {
		cfg.Inject = inj
	}
	// The tracer adopts a caller's trace context when -traceparent is
	// given, so a CLI run stitches under the caller's span in 'chop trace'.
	topts := obs.TracerOptions{}
	if *o.traceparent != "" {
		tc, err := obs.ParseTraceparent(*o.traceparent)
		if err != nil {
			return nil, fmt.Errorf("-traceparent: %w", err)
		}
		topts.Context = tc
	}
	// Output files are created now, not after the run: an unwritable path
	// must fail before minutes of search, and whatever was opened before
	// the failing step is closed again on the way out.
	var opened []io.Closer
	fail := func(err error) (func() error, error) {
		for _, c := range opened {
			c.Close()
		}
		return nil, err
	}
	var err error
	var file *obs.FileSink
	if *o.trace != "" {
		if file, err = obs.NewFileSink(*o.trace); err != nil {
			return nil, err
		}
		opened = append(opened, file)
		file.Inject(cfg.Inject) // "sink.write" chaos site; nil is inert
		cfg.Trace = obs.NewTracer(file, topts)
	}
	var statsFile, promFile *os.File
	if *o.statsOut != "" {
		if statsFile, err = os.Create(*o.statsOut); err != nil {
			return fail(err)
		}
		opened = append(opened, statsFile)
	}
	if *o.prom != "" {
		if promFile, err = os.Create(*o.prom); err != nil {
			return fail(err)
		}
		opened = append(opened, promFile)
	}
	prof, err := obs.StartProfiler(obs.ProfileConfig{
		CPUFile:   *o.cpuprofile,
		MemFile:   *o.memprofile,
		BlockFile: *o.blockprofile,
	})
	if err != nil {
		return fail(err)
	}
	var m *obs.Metrics
	if *o.metrics || promFile != nil {
		m = obs.NewMetrics()
		cfg.Metrics = m
	}
	// -progress and -stats-out are two views of one sampler over one
	// run-stats fold published by the search, with phase accounting riding
	// along: the accounter is attached now, so every snapshot from the
	// first prediction on carries the per-phase breakdown chop top, chop
	// explain -stats and -progress read. The sampler starts now, so the
	// record covers prediction as well as search.
	var samp *sampler
	if statsFile != nil || *o.progress {
		cfg.Stats = obs.NewRunStats(o.fs.Name())
		cfg.Phases = obs.NewPhaseAccounter()
		cfg.Stats.AttachPhases(cfg.Phases)
		var progress, out io.Writer
		if *o.progress {
			progress = os.Stderr
		}
		if statsFile != nil {
			out = statsFile
		}
		samp = startSampler(cfg.Stats, progress, out)
	}
	return func() error {
		var first error
		keep := func(err error) {
			if first == nil && err != nil {
				first = err
			}
		}
		if samp != nil {
			keep(samp.finish())
		}
		if statsFile != nil {
			if err := statsFile.Close(); err != nil {
				keep(fmt.Errorf("stats: %w", err))
			} else {
				fmt.Fprintf(os.Stderr, "stats written to %s (watch live with: chop top -f %s)\n",
					*o.statsOut, *o.statsOut)
			}
		}
		if *o.metrics {
			fmt.Println("\nmetrics:")
			fmt.Print(m.Text())
		}
		if promFile != nil {
			// Retried with truncate-and-rewrite semantics, so a transient
			// write failure cannot leave a half-written exposition behind.
			keep(resilience.Retry(func() error {
				if err := promFile.Truncate(0); err != nil {
					return err
				}
				if _, err := promFile.Seek(0, io.SeekStart); err != nil {
					return err
				}
				_, err := promFile.WriteString(m.PromText())
				return err
			}))
			keep(promFile.Close())
		}
		if file != nil {
			if err := file.Close(); err != nil {
				keep(fmt.Errorf("trace: %w", err))
			} else {
				fmt.Fprintf(os.Stderr, "trace written to %s (replay with: chop explain -f %s)\n",
					*o.trace, *o.trace)
			}
		}
		keep(prof.Stop())
		return first
	}, nil
}

func eval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	file := fs.String("f", "", "partitioning spec file (JSON)")
	gantt := fs.Bool("gantt", false, "print the task-schedule timeline of the fastest design")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("eval: -f spec.json required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	prob, err := spec.Parse(data)
	if err != nil {
		return err
	}
	finish, err := of.attach(&prob.Config)
	if err != nil {
		return err
	}
	start := time.Now()
	res, preds, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("partitions: %d on %d chips, heuristic %s, %s\n",
		prob.Partitioning.NumParts(), len(prob.Partitioning.Chips.Chips),
		prob.Heuristic, elapsed.Round(time.Millisecond))
	for i, r := range preds {
		fmt.Printf("  partition %d: %d predictions, %d kept, %d feasible\n",
			i+1, r.Total, len(r.Designs), r.Feasible)
	}
	fmt.Printf("trials: %d, feasible: %d\n", res.Trials, res.FeasibleTrials)
	if len(res.Best) == 0 {
		fmt.Println("NO feasible implementation found for this partitioning")
		return nil
	}
	fmt.Println("feasible non-inferior implementations:")
	for _, b := range res.Best {
		fmt.Printf("  interval=%d cycles  delay=%d cycles  clock=%.0f ns  (perf %.0f ns, delay %.0f ns)\n",
			b.IIMain, b.DelayMain, b.Clock.ML, b.PerfNS.ML, b.DelayNS.ML)
	}
	// Designer guidance, as in paper section 3.1.
	best := res.Best[0]
	fmt.Println("\nguideline for the fastest implementation:")
	printGuideline(os.Stdout, best.Choice)
	for _, m := range best.Modules {
		fmt.Printf("  transfer %-14s wait=%d xfer=%d cycles, buffer=%d bits, bus=%d pins\n",
			m.Task.Name, m.Wait, m.Transfer, m.BufferBits, m.Pins)
	}
	if *gantt {
		fmt.Println("\ntask schedule:")
		fmt.Print(viz.Gantt(best, 64))
	}
	return nil
}

// printGuideline writes the implementation guideline of each partition's
// chosen design, its FU counts in sorted op order so the text is the same
// on every run.
func printGuideline(w io.Writer, choice []bad.Design) {
	for pi, d := range choice {
		fmt.Fprintf(w, "  partition %d: %s style, %d stage(s), modules %s,",
			pi+1, d.Style, d.Stages, d.ModuleSet.ID())
		for _, op := range d.FUOps() {
			fmt.Fprintf(w, " %d %s FU(s)", d.FUs[op], op)
		}
		fmt.Fprintf(w, ", %d register bits, %d 1-bit muxes\n", d.RegBits, d.Mux1Bit)
	}
}

// advise starts an interactive advisor session over a spec file, reading
// commands from stdin (scriptable: pipe a command file in).
func advise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	file := fs.String("f", "", "partitioning spec file (JSON)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("advise: -f spec.json required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	prob, err := spec.Parse(data)
	if err != nil {
		return err
	}
	finish, err := of.attach(&prob.Config)
	if err != nil {
		return err
	}
	err = func() error {
		sess, err := advisor.New(prob.Partitioning, prob.Config, prob.Heuristic)
		if err != nil {
			return err
		}
		fmt.Println("chop advisor — type 'help' for commands, 'quit' to exit")
		sc := bufio.NewScanner(os.Stdin)
		for {
			fmt.Print("chop> ")
			if !sc.Scan() {
				fmt.Println()
				return sc.Err()
			}
			line := sc.Text()
			if line == "quit" || line == "exit" {
				return nil
			}
			out, err := sess.Exec(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if out != "" {
				fmt.Println(out)
			}
		}
	}()
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// explain replays a trace file recorded with -trace into a human-readable
// report: time breakdown per pipeline stage, BAD predictions per partition,
// and the trial rejection-reason histogram (overall and per chip).
func explain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	file := fs.String("f", "", "trace file (JSONL) recorded with -trace; '-' reads stdin")
	stats := fs.Bool("stats", false, "print the search-statistics report (per-run table, trial timeline) instead of the stage breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var r io.Reader
	switch *file {
	case "":
		return fmt.Errorf("explain: -f trace.jsonl required")
	case "-":
		r = os.Stdin
	default:
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	rep, err := obs.Replay(r)
	if err != nil {
		return err
	}
	if *stats {
		fmt.Print(rep.FormatStats())
	} else {
		fmt.Print(rep.Format())
	}
	return nil
}

// compile compiles a behavioral program written in the hlspec language and
// prints the resulting data-flow graph.
func compile(args []string) error {
	fs := flag.NewFlagSet("compile", flag.ExitOnError)
	file := fs.String("f", "", "behavioral program file")
	width := fs.Int("width", 16, "datapath bit width")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("compile: -f prog.hls required")
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	g, err := hlspec.Compile(*file, string(src), *width)
	if err != nil {
		return err
	}
	fmt.Printf("compiled %s: %d nodes, %d edges, ops %v\n",
		g.Name, len(g.Nodes), len(g.Edges), g.OpCounts())
	for _, n := range g.Nodes {
		coef := ""
		if n.HasCoef {
			coef = fmt.Sprintf(" coef=%d", n.Coef)
		}
		fmt.Printf("  %-14s %-7s%s\n", n.Name, n.Op, coef)
	}
	return nil
}

// synth runs CHOP on a spec, synthesizes every partition of the fastest
// all-non-pipelined feasible design to RTL, co-simulates the multi-chip
// system against the behavioral golden model, and emits structural Verilog
// for each partition on stdout.
func synth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	file := fs.String("f", "", "partitioning spec file (JSON)")
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("synth: -f spec.json required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	prob, err := spec.Parse(data)
	if err != nil {
		return err
	}
	finish, err := of.attach(&prob.Config)
	if err != nil {
		return err
	}
	res, _, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	syn, err := cosim.Synthesize(prob.Partitioning, prob.Config, res.Best)
	if err != nil {
		return err
	}
	chosen := syn.Design
	fmt.Fprintf(os.Stderr, "synthesizing design: interval=%d delay=%d clock=%.0fns\n",
		chosen.IIMain, chosen.DelayMain, chosen.Clock.ML)
	fmt.Fprintln(os.Stderr, "multi-chip co-simulation against the golden model: PASS")

	for pi, nl := range syn.Netlists {
		sub := syn.Subgraphs[pi]
		fmt.Printf("// ---- partition %d of %d ----\n%s\n", pi+1, len(syn.Netlists), nl.Verilog(sub))
		// Self-checking testbench with golden-model vectors baked in.
		vectors := make([]map[string]int64, 2)
		for vi := range vectors {
			vectors[vi] = map[string]int64{}
			for i, id := range sub.Inputs() {
				vectors[vi][sub.Nodes[id].Name] = int64((vi+1)*7 + i*3)
			}
		}
		tb, err := sim.Testbench(sub, nl, vectors, nil)
		if err != nil {
			return fmt.Errorf("synth: partition %d testbench: %w", pi+1, err)
		}
		fmt.Println(tb)
	}
	return nil
}

// accuracy prints the prediction-vs-binding comparison table.
func accuracy() error {
	rows, err := experiments.Accuracy()
	if err != nil {
		return err
	}
	fmt.Println("BAD prediction accuracy against bound RTL netlists (AR filter, experiment 2)")
	fmt.Println(experiments.FormatAccuracy(rows))
	return nil
}
