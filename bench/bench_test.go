package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"chop/internal/obs"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", b.Command, b.Paths)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, program runs %v", names, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %+v\nprogram %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer %+v\nprogram %+v", b.PerLayer, perLayer)
	}
}

// TestTablesGolden pins the golden tables to the numbers EXPERIMENTS.md
// publishes, then runs one op untraced and one traced against them.
func TestTablesGolden(t *testing.T) {
	var g tablesGolden
	if err := loadGolden("tables", &g); err != nil {
		t.Fatal(err)
	}
	counts := func(n int) (total, feasible []int) {
		for _, r := range g.exp(n).Counts {
			total = append(total, r.Total)
			feasible = append(feasible, r.Feasible)
		}
		return total, feasible
	}
	if total, feasible := counts(1); !reflect.DeepEqual(total, []int{156, 276, 282}) || !reflect.DeepEqual(feasible, []int{4, 10, 17}) {
		t.Errorf("Table 3: totals %v feasible %v", total, feasible)
	}
	if total, _ := counts(2); !reflect.DeepEqual(total, []int{930, 1488, 1455}) {
		t.Errorf("Table 5: totals %v", total)
	}
	var trials []int
	for _, r := range g.Exp1.Results {
		if r.Package == 2 {
			trials = append(trials, r.Trials)
		}
	}
	if !reflect.DeepEqual(trials, []int{4, 8, 25, 5, 168, 6}) {
		t.Errorf("Table 4: E/I trials %v, want 4/8, 25/5, 168/6", trials)
	}

	run, err := tablesSetup(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*probe{nil, newProbe("tables")} {
		out, err := run.op(p)
		if err == nil {
			err = out.check()
		}
		if err != nil {
			t.Fatalf("traced=%v: %v", p != nil, err)
		}
		if out.trials != 530 {
			t.Errorf("traced=%v: %d trials per op, want 530", p != nil, out.trials)
		}
	}
}

// TestServeJobs runs two passes over the serve mix through a live server
// and checks every result against its in-process reference.
func TestServeJobs(t *testing.T) {
	mix, err := prepareMix()
	if err != nil {
		t.Fatal(err)
	}
	s, err := startServer(mix)
	if err != nil {
		t.Fatal(err)
	}
	order := &jobOrder{rng: rand.New(rand.NewSource(1)), n: len(mix)}
	jobs := s.round(mix, order.next(2*len(mix)), newProbe("serve"))
	var r report
	checkJobs(mix, jobs, &r)
	if err := s.stop(); err != nil {
		t.Error(err)
	}
	if r.Attempted != 24 || r.Failed != 0 {
		t.Fatalf("%d of %d jobs failed: %v", r.Failed, r.Attempted, r.Notes)
	}
}

// TestSearchWorkloads runs one fig7 op and one stress6 op against their
// golden outputs (and stress6 against its one-worker reference).
func TestSearchWorkloads(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("fig7 and stress6 ops take seconds each; skipped under -short and -race")
	}
	for _, def := range batchDefs[1:] {
		run, err := def.setup(5, nil)
		if err == nil && run.prepare != nil {
			err = run.prepare()
		}
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		out, err := run.op(nil)
		if err == nil {
			err = out.check()
		}
		if err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
	}
}

// TestSelfTimes checks that a span's self time excludes the union of its
// children, overlapping ones counted once.
func TestSelfTimes(t *testing.T) {
	ev := func(kind string, id, parent, t int64, name string) obs.Event {
		return obs.Event{Kind: kind, Span: id, Parent: parent, TNS: t, Name: name}
	}
	events := []obs.Event{
		ev(obs.KindBegin, 1, 0, 0, "op"),
		ev(obs.KindBegin, 2, 1, 10, "a"),
		ev(obs.KindBegin, 3, 1, 20, "b"),
		ev(obs.KindEnd, 2, 0, 40, "a"),
		ev(obs.KindEnd, 3, 0, 50, "b"),
		ev(obs.KindBegin, 4, 1, 70, "a"),
		ev(obs.KindEnd, 4, 0, 80, "a"),
		ev(obs.KindEnd, 1, 0, 100, "op"),
	}
	got := selfTimes(events)
	want := map[string]int64{"op": 100 - 40 - 10, "a": 30 + 10, "b": 30}
	for name, ns := range want {
		if int64(got[name]) != ns {
			t.Errorf("self(%s) = %d, want %d", name, got[name], ns)
		}
	}
}

// TestSpread checks the quartiles against Python's
// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25] and
// statistics.quantiles([4, 1, 3], n=4) = [1.0, 3.0, 4.0].
func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5.5 {
		t.Errorf("spread(1..10) = %g", got)
	}
	if got := spread([]float64{4, 1, 3}); got != 1 {
		t.Errorf("spread(4, 1, 3) = %g", got)
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "fig7", "--trace", "0", "-trace", "-seed", "1"})
	want := []string{"--workload", "fig7", "--trace=0", "-trace", "-seed", "1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceValue = %q, want %q", got, want)
	}
}
