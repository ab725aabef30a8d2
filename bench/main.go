// Command bench is CHOP's benchmark: the paper's Tables 3-6, Figure 7,
// a six-chip stress search and eval jobs through `chop serve`, each
// workload in a child process of its own. See README.md.
//
// Run it from the repository root with `bash bench/run.sh [flags]`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"chop/internal/benchkit"
)

// runSeconds is how long one untraced run measures by default; it matches
// BENCHMARK.json's run_seconds.
const runSeconds = 20

var workloads = []string{"tables", "fig7", "stress6", "serve"}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run one workload: "+strings.Join(workloads, ", ")+" (default all)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "seconds an untraced run measures")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.traceDir, "trace-dir", filepath.Join(repoRoot(), ".bench_build", "traces"), "where traced runs write chop-trace/1 JSONL")
	out := fs.String("o", "", "write every metric with its unit and sample count, and the build environment, to this JSON file")
	repeat := fs.Bool("repeat-check", false, "measure two sets of every workload and compare each end-to-end metric against its bound")
	runs := fs.Int("runs", 10, "runs per workload in each -repeat-check set, seeds -seed, -seed+1, ...")
	golden := fs.Bool("write-golden", false, "regenerate the golden outputs in bench/testdata")
	child := fs.Bool("child", false, "measure one workload in this process (the parent re-executes itself with it)")
	fs.Parse(joinTraceValue(os.Args[1:]))
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		os.Exit(2)
	}
	if o.workload != "" && !slices.Contains(workloads, o.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if o.seconds < 1 || *runs < 2 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1 and -runs at least 2")
		os.Exit(2)
	}

	var err error
	switch {
	case *child:
		err = runChild(o)
	case *golden:
		err = writeGoldens(filepath.Join(repoRoot(), "bench", "testdata"))
	case *repeat:
		err = repeatCheck(o, *runs, *out)
	case o.workload != "":
		err = runOne(o, *out)
	default:
		err = runAll(o, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinTraceValue turns "-trace 0" and "-trace 1" into "-trace=0" and
// "-trace=1": -trace is a boolean flag, which the flag package would
// otherwise end at its name, leaving the value as a stray argument.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// repoRoot is the repository root: the working directory under run.sh,
// its parent under `go run .` in bench/.
func repoRoot() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "."
	}
	return ".."
}

// runChild measures one workload and prints its report as the last line.
func runChild(o options) error {
	r := &report{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	var def *batchDef
	for i := range batchDefs {
		if batchDefs[i].name == o.workload {
			def = &batchDefs[i]
		}
	}
	switch {
	case def != nil && o.trace:
		traceBatch(*def, o, r)
	case def != nil:
		runBatch(*def, o, r)
	case o.trace:
		traceServe(o, r)
	default:
		runServe(o, r)
	}
	if r.Attempted == 0 {
		r.Attempted = 1 // a run that failed before its first op
	}
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

// finishTrace writes the traced run's spans and fills its per-layer
// metrics.
func finishTrace(p *probe, l *layerSet, o options, r *report) {
	l.fill(r)
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	orphans, err := p.rec.write(path)
	switch {
	case err != nil:
		r.fail(1, "trace: %v", err)
	case orphans > 0:
		r.fail(1, "trace %s: %d orphan spans", path, orphans)
	default:
		r.note("trace: %s (%d events; `chop trace -fail-on-orphans %s` renders it)", path, len(p.rec.events), path)
	}
}

// measure runs one workload in a child process: peak RSS and GC state are
// then the workload's own. The child's stderr passes through.
func measure(o options) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-trace="+strconv.FormatBool(o.trace), "-trace-dir", o.traceDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: child report: %w", o.workload, err)
	}
	return &r, nil
}

// printReport writes one workload's metrics, one per line.
func printReport(r *report) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("%s  seed %d  %s  attempted %d  failed %d  fail_frac %g\n",
		r.Workload, r.Seed, mode, r.Attempted, r.Failed, r.failFrac())
	for _, m := range r.Metrics {
		fmt.Printf("  %-28s %14.6g %-8s (%d samples)\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// runOne runs one workload and ends its output with a one-line JSON
// result: correct, attempted, failed and the declared metrics.
func runOne(o options, out string) error {
	r, err := measure(o)
	if err != nil {
		return err
	}
	printReport(r)
	if err := writeResults(out, [][]*report{{r}}); err != nil {
		return err
	}
	metrics := map[string]any{}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		if m, ok := r.value(d.Name); ok {
			metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if r.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted)
	}
	return nil
}

// runSet measures every workload once.
func runSet(o options) ([]*report, error) {
	var set []*report
	for _, w := range workloads {
		wo := o
		wo.workload = w
		r, err := measure(wo)
		if err != nil {
			return nil, err
		}
		printReport(r)
		set = append(set, r)
	}
	return set, nil
}

func failures(sets ...[]*report) error {
	var errs []error
	for _, set := range sets {
		for _, r := range set {
			if r.Failed > 0 {
				errs = append(errs, fmt.Errorf("%s: %d of %d ops failed", r.Workload, r.Failed, r.Attempted))
			}
		}
	}
	return errors.Join(errs...)
}

func runAll(o options, out string) error {
	set, err := runSet(o)
	if err != nil {
		return err
	}
	if err := writeResults(out, [][]*report{set}); err != nil {
		return err
	}
	return failures(set)
}

// repeatCheck measures the same code in two sets, each running every
// workload once per seed for runs seeds, and compares the sets per
// workload and end-to-end metric. A metric holds when, in each set, the
// distance between its first and third quartile is at most its bound as a
// share of its median (setup_s excepted), and the second set's median is
// no worse than the first's by more than the bound.
func repeatCheck(o options, runs int, out string) error {
	o.trace = false
	sets := make([][]*report, 2)
	for s := range sets {
		for _, w := range workloads {
			for i := 0; i < runs; i++ {
				wo := o
				wo.workload = w
				wo.seed = o.seed + int64(i)
				fmt.Printf("== set %d, ", s+1)
				r, err := measure(wo)
				if err != nil {
					return err
				}
				printReport(r)
				sets[s] = append(sets[s], r)
			}
		}
	}
	if err := writeResults(out, sets); err != nil {
		return err
	}
	fmt.Printf("%-8s %-16s %13s %7s %13s %7s %8s %6s\n",
		"workload", "metric", "median 1", "spread", "median 2", "spread", "worse", "bound")
	var outside []string
	for _, w := range workloads {
		for _, d := range untracedDefs() {
			a, b := values(sets[0], w, d.Name), values(sets[1], w, d.Name)
			ma, mb := median(a), median(b)
			sa, sb := spread(a), spread(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			bound, verdict := "-", ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				spreadOK := d.Name == "setup_s" || (sa <= d.Bound && sb <= d.Bound)
				if !spreadOK || !(worse <= d.Bound) {
					verdict = "  OUTSIDE"
					outside = append(outside, w+"/"+d.Name)
				}
			}
			fmt.Printf("%-8s %-16s %13.6g %6.1f%% %13.6g %6.1f%% %7.1f%% %6s%s\n",
				w, d.Name, ma, 100*sa, mb, 100*sb, 100*worse, bound, verdict)
		}
	}
	if err := failures(sets...); err != nil {
		return err
	}
	if len(outside) > 0 {
		return fmt.Errorf("outside their bounds: %s", strings.Join(outside, ", "))
	}
	return nil
}

// values lists one metric of one workload across a set's reports.
func values(set []*report, workload, name string) []float64 {
	var out []float64
	for _, r := range set {
		if m, ok := r.value(name); ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// writeResults saves every report with the build environment.
func writeResults(path string, sets [][]*report) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(map[string]any{
		"build": benchkit.ReadBuildEnv(),
		"sets":  sets,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeGoldens regenerates the batch workloads' golden outputs.
func writeGoldens(dir string) error {
	tables, err := tablesGoldenNow()
	if err != nil {
		return err
	}
	fig7, err := fig7GoldenNow()
	if err != nil {
		return err
	}
	stress6, err := stress6GoldenNow()
	if err != nil {
		return err
	}
	for name, v := range map[string]any{"tables": tables, "fig7": fig7, "stress6": stress6} {
		if err := writeGolden(dir, name, v); err != nil {
			return err
		}
	}
	fmt.Println("bench: golden outputs written to", dir)
	return nil
}
