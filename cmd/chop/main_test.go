package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/dfg"
)

// parseObs builds an obsFlags the way every run-style command does.
func parseObs(t *testing.T, args ...string) *obsFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return of
}

// openFDs counts this process's open file descriptors, so the tests can
// prove attach does not leak handles on its error paths.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot enumerate fds on this platform: %v", err)
	}
	return len(ents)
}

func TestAttachTraceUnwritable(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "trace.jsonl")
	of := parseObs(t, "-trace", bad)
	var cfg core.Config
	if _, err := of.attach(&cfg); err == nil {
		t.Fatal("attach must fail for an unwritable -trace path")
	}
}

// TestAttachPromUnwritable: the -prom file is created at attach time, so a
// bad path fails before the run, and the already-opened trace file is
// closed rather than leaked.
func TestAttachPromUnwritable(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	badProm := filepath.Join(dir, "no", "such", "dir", "metrics.prom")
	before := openFDs(t)
	of := parseObs(t, "-trace", tracePath, "-prom", badProm)
	var cfg core.Config
	if _, err := of.attach(&cfg); err == nil {
		t.Fatal("attach must fail for an unwritable -prom path")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("fd leak: %d open before failed attach, %d after", before, after)
	}
}

// TestAttachProfilerFailureClosesFiles: when the profiler cannot start, the
// trace and prom files opened earlier in attach are both closed.
func TestAttachProfilerFailureClosesFiles(t *testing.T) {
	dir := t.TempDir()
	badCPU := filepath.Join(dir, "no", "such", "dir", "cpu.out")
	before := openFDs(t)
	of := parseObs(t,
		"-trace", filepath.Join(dir, "trace.jsonl"),
		"-prom", filepath.Join(dir, "metrics.prom"),
		"-cpuprofile", badCPU)
	var cfg core.Config
	if _, err := of.attach(&cfg); err == nil {
		t.Fatal("attach must fail when the profiler cannot start")
	}
	if after := openFDs(t); after != before {
		t.Fatalf("fd leak: %d open before failed attach, %d after", before, after)
	}
}

// TestAttachPromHappyPath: the file exists as soon as attach returns, and
// finish fills it with Prometheus text exposition.
func TestAttachPromHappyPath(t *testing.T) {
	promPath := filepath.Join(t.TempDir(), "metrics.prom")
	of := parseObs(t, "-prom", promPath)
	var cfg core.Config
	finish, err := of.attach(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(promPath); err != nil {
		t.Fatalf("-prom file not created eagerly: %v", err)
	}
	cfg.Metrics.Add("core.trials", 3)
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "chop_core_trials 3") {
		t.Fatalf("prom output missing counter:\n%s", data)
	}
}

func TestLogFlagsBadLevel(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	lf := addLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "verbose"}); err != nil {
		t.Fatal(err)
	}
	if _, err := lf.logger(); err == nil {
		t.Fatal("bogus -log-level must be rejected")
	}
}

func TestLogFlagsLevels(t *testing.T) {
	for _, lvl := range []string{"debug", "info", "warn", "error"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		lf := addLogFlags(fs)
		if err := fs.Parse([]string{"-log-level", lvl, "-log-json"}); err != nil {
			t.Fatal(err)
		}
		if _, err := lf.logger(); err != nil {
			t.Errorf("level %s rejected: %v", lvl, err)
		}
	}
}

func TestVersionCmd(t *testing.T) {
	if err := version(); err != nil {
		t.Fatal(err)
	}
}

// TestPrintGuidelineSortsFUs: the eval guideline lists a design's FU
// counts in sorted op order on every run, not in map order.
func TestPrintGuidelineSortsFUs(t *testing.T) {
	d := bad.Design{
		Style:  bad.NonPipelined,
		Stages: 1,
		FUs: map[dfg.Op]int{
			dfg.OpSub: 1, dfg.OpMul: 2, dfg.OpAdd: 3, dfg.OpCmp: 4, dfg.OpDiv: 5,
		},
		RegBits: 64,
		Mux1Bit: 16,
	}
	want := "  partition 1: non-pipelined style, 1 stage(s), modules ," +
		" 3 add FU(s) 4 cmp FU(s) 5 div FU(s) 2 mul FU(s) 1 sub FU(s)," +
		" 64 register bits, 16 1-bit muxes\n"
	for run := 0; run < 20; run++ {
		var b strings.Builder
		printGuideline(&b, []bad.Design{d})
		if b.String() != want {
			t.Fatalf("run %d:\n got %q\nwant %q", run, b.String(), want)
		}
	}
}
