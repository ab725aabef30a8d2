package benchkit

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/dfg"
)

func TestStressDFGValid(t *testing.T) {
	g := StressDFG(4, 8, 16)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := g.OpCounts()
	if counts[dfg.OpAdd] != 16 || counts[dfg.OpMul] != 16 {
		t.Fatalf("op mix wrong: %v", counts)
	}
	if len(dfg.LevelPartitions(g, 3)) != 3 {
		t.Fatal("stress graph does not partition")
	}
}

func TestWorkloadsCoverage(t *testing.T) {
	ws := Workloads()
	if len(ws) < 5 {
		t.Fatalf("harness must cover >= 5 workloads, has %d", len(ws))
	}
	seen := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || w.Run == nil {
			t.Fatalf("malformed workload %+v", w)
		}
		if seen[w.Name] {
			t.Fatalf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	for _, want := range []string{"exp1", "exp2", "graph/ar", "graph/ewf", "graph/fir", "graph/diffeq", "stress/",
		"search/stress/w1", "search/stress/w4", "advisor/cached"} {
		found := false
		for name := range seen {
			if strings.Contains(name, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no workload covers %q", want)
		}
	}
}

// TestParallelSearchWorkloads runs the serial/parallel search workload
// pair once each: both must complete (their ns/op ratio in a BENCH report
// is the parallel engine's speedup on multi-core hosts).
func TestParallelSearchWorkloads(t *testing.T) {
	rep, err := Run(Options{Short: true, MinTime: time.Millisecond, Filter: "search/stress"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != 2 {
		t.Fatalf("want w1 and w4 workloads, got %d", len(rep.Workloads))
	}
	for _, w := range rep.Workloads {
		if w.Iters < 1 || w.NsPerOp <= 0 {
			t.Fatalf("workload %s did not measure: %+v", w.Name, w)
		}
	}
}

// TestStressSearchReachesFeasible: the stress search behind the
// search/stress, search/ckpt and search/stats workloads examines its full
// 4,096-combination space and finds feasible designs, so the telemetry gate
// times the feasible branch of the trial path, not only rejections.
func TestStressSearchReachesFeasible(t *testing.T) {
	if err := ensureStressProblem(); err != nil {
		t.Fatal(err)
	}
	cfg := stressProblem.cfg
	cfg.Workers = 2
	res, err := core.Search(stressProblem.p, cfg, stressProblem.preds, core.Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4096 || res.FeasibleTrials == 0 {
		t.Fatalf("stress search: %d trials, %d feasible; want 4096 with at least one feasible",
			res.Trials, res.FeasibleTrials)
	}
}

// TestAdvisorCacheHitRate is the predictor-cache acceptance check: the
// advisor move-loop workload must resolve more than half of its BAD
// predictions from the content-keyed cache.
func TestAdvisorCacheHitRate(t *testing.T) {
	rep, err := Run(Options{Short: true, MinTime: time.Millisecond, Filter: "advisor/cached"})
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Workloads[0]
	hits := w.Counters["bad.predict_cache_hit"]
	misses := w.Counters["bad.predict_cache_miss"]
	if hits+misses == 0 {
		t.Fatal("advisor/cached recorded no cache traffic")
	}
	rate := float64(hits) / float64(hits+misses)
	t.Logf("cache: %d hits, %d misses (%.0f%%)", hits, misses, 100*rate)
	if rate <= 0.5 {
		t.Fatalf("cache hit rate %.2f not above 50%%", rate)
	}
}

// TestRunShortSubset runs a fast slice of the real harness end to end and
// round-trips the report through Save/Load.
func TestRunShortSubset(t *testing.T) {
	rep, err := Run(Options{Short: true, MinTime: time.Millisecond, Filter: "graph/ewf"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Workloads) != 2 { // ewf/p2 and ewf/p3
		t.Fatalf("want 2 ewf workloads, got %d", len(rep.Workloads))
	}
	for _, w := range rep.Workloads {
		if w.Iters < 1 || w.NsPerOp <= 0 {
			t.Fatalf("implausible measurement %+v", w)
		}
		if w.Counters["core.trials"] == 0 {
			t.Errorf("%s: no pipeline counters captured", w.Name)
		}
	}
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Workloads) != len(rep.Workloads) || back.Go != rep.Go {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestRunUnknownFilter(t *testing.T) {
	if _, err := Run(Options{Filter: "no-such-workload"}); err == nil {
		t.Fatal("want error for filter matching nothing")
	}
}

func TestLoadRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	os.WriteFile(path, []byte(`{"schema":"chop-bench/999","workloads":[]}`), 0o644)
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}

func report(ns map[string]float64) *Report {
	r := &Report{Schema: SchemaVersion}
	for name, v := range ns {
		r.Workloads = append(r.Workloads, Result{Name: name, Iters: 1, NsPerOp: v})
	}
	return r
}

// TestCompareRegressionGate injects a >= tolerance regression and checks
// the gate trips — and stays quiet within tolerance.
func TestCompareRegressionGate(t *testing.T) {
	old := report(map[string]float64{"a": 100, "b": 200, "gone": 50})
	cur := report(map[string]float64{"a": 125, "b": 205, "added": 70})

	deltas, regressed := Compare(old, cur, 10)
	if !regressed {
		t.Fatal("25% slowdown at 10% tolerance must regress")
	}
	byName := map[string]Delta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if !byName["a"].Regression {
		t.Errorf("a should regress: %+v", byName["a"])
	}
	if byName["b"].Regression {
		t.Errorf("2.5%% drift should pass at 10%% tolerance: %+v", byName["b"])
	}
	if _, ok := byName["gone"]; ok {
		t.Error("workload missing from the new report must be skipped")
	}
	if _, ok := byName["added"]; ok {
		t.Error("workload missing from the old report must be skipped")
	}

	// Raising the tolerance above the injected slowdown clears the gate.
	if _, regressed := Compare(old, cur, 30); regressed {
		t.Error("30% tolerance should absorb a 25% slowdown")
	}

	out := FormatDeltas(deltas)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("formatted deltas do not flag the regression:\n%s", out)
	}
}

func TestNextPath(t *testing.T) {
	dir := t.TempDir()
	p1, err := NextPath(dir)
	if err != nil || filepath.Base(p1) != "BENCH_1.json" {
		t.Fatalf("first slot = %q, %v", p1, err)
	}
	os.WriteFile(filepath.Join(dir, "BENCH_1.json"), []byte("{}"), 0o644)
	os.WriteFile(filepath.Join(dir, "BENCH_2.json"), []byte("{}"), 0o644)
	p3, err := NextPath(dir)
	if err != nil || filepath.Base(p3) != "BENCH_3.json" {
		t.Fatalf("next slot = %q, %v", p3, err)
	}
}
