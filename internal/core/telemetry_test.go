package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chop/internal/obs"
	"chop/internal/resilience"
)

// updateGolden rewrites the goldens under testdata/ instead of comparing
// against them: go test ./internal/core -run 'TestTraceGolden|TestRejectReasonGolden' -update
var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// allPlanes attaches every telemetry plane — trace, metrics, run stats and
// phase accounting — to cfg, tracing into buf.
func allPlanes(cfg Config, buf *bytes.Buffer) Config {
	cfg.Trace = obs.New(obs.NewWriterSink(buf))
	cfg.Metrics = obs.NewMetrics()
	cfg.Stats = obs.NewRunStats("planes")
	cfg.Phases = obs.NewPhaseAccounter()
	return cfg
}

// normalizeTrace rewrites a JSONL trace into its run-independent form:
// timestamps, durations, the epoch anchor and the distributed identity
// (trace, sid, psid) are dropped, the "phases" point keeps its keys but
// not its measured values, and the "tally" point keeps its integrate-time
// sample count but not their measured sum and max. What remains — event
// names, kinds, local span tree, run tags and fields, in emission order —
// is fixed for a one-worker run.
func normalizeTrace(t *testing.T, raw []byte) string {
	t.Helper()
	type normEvent struct {
		Kind   string         `json:"k"`
		Name   string         `json:"name"`
		Span   int64          `json:"span,omitempty"`
		Parent int64          `json:"parent,omitempty"`
		Run    string         `json:"run,omitempty"`
		Fields map[string]any `json:"f,omitempty"`
	}
	var b strings.Builder
	for i, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d: %v", i+1, err)
		}
		if ev.Kind == obs.KindPoint && ev.Name == "phases" {
			for k := range ev.Fields {
				ev.Fields[k] = nil
			}
		}
		if ev.Kind == obs.KindPoint && ev.Name == "tally" {
			ev.Fields["integrateSumUS"], ev.Fields["integrateMaxUS"] = nil, nil
		}
		out, err := json.Marshal(normEvent{ev.Kind, ev.Name, ev.Span, ev.Parent, ev.Run, ev.Fields})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(out)
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, golden has %d", name, len(gl), len(wl))
	}
}

// planesProblem is the paper's three-partition AR filter under the
// experiment-2 setup: its searches reject on rate mismatch, delay and
// chip-1 area, and the iterative heuristic takes Figure-5 serialization
// steps, so every field of the tally point and the serialize point occur.
func planesProblem(t *testing.T) (*Partitioning, Config) {
	return arPartitioning(t, 3, 1), exp2Config()
}

// TestTraceGolden pins the event stream of a traced one-worker Run with
// every telemetry plane attached: event names, kinds, fields and their
// order are a file format (`chop explain`, `chop trace` and external tools
// read it), so any change to them shows up here.
func TestTraceGolden(t *testing.T) {
	for _, h := range []Heuristic{Enumeration, Iterative} {
		var buf bytes.Buffer
		p, base := planesProblem(t)
		cfg := allPlanes(base, &buf)
		cfg.Workers = 1
		if _, _, err := Run(p, cfg, h); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("trace_%s.golden.jsonl", h), normalizeTrace(t, buf.Bytes()))
	}
}

// replayCounts is what obs.Replay reports about a traced Run's trials and
// predictions.
type replayCounts struct {
	trials, feasible, pruned, serializations int
	reasons                                  map[string]int
	chipReasons                              map[int]map[string]int
	partitions                               map[int]int
}

// planesReplay pins replayCounts for the planesProblem Run under each
// heuristic, at one worker and at four.
var planesReplay = map[Heuristic]replayCounts{
	Enumeration: {
		trials: 210, feasible: 82, pruned: 128,
		reasons:     map[string]int{"area": 25, "delay": 18, "rate-mismatch": 85},
		chipReasons: map[int]map[string]int{1: {"area": 25}},
		partitions:  map[int]int{1: 5, 2: 6, 3: 7},
	},
	Iterative: {
		trials: 30, feasible: 18, pruned: 12, serializations: 9,
		reasons:     map[string]int{"area": 12},
		chipReasons: map[int]map[string]int{1: {"area": 12}},
		partitions:  map[int]int{1: 5, 2: 6, 3: 7},
	},
}

// TestPlanesAgree runs the planesProblem search with all four telemetry
// planes on and checks that every plane books the same trials: the trace
// replay, the core.* metrics counters, the RunStats fold and the phase
// accounter's trial count all equal the SearchResult, which itself equals
// a bare run's, and the fold's rejections equal the core.reject.*
// counters. Per-reason and per-chip rejection counts must also agree
// between one and four workers, and the replay must report planesReplay.
func TestPlanesAgree(t *testing.T) {
	p, base := planesProblem(t)
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		bare, err := Search(p, base, preds, h)
		if err != nil {
			t.Fatal(err)
		}
		var w1 *obs.Report
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/w%d", h, workers)
			var buf bytes.Buffer
			cfg := allPlanes(base, &buf)
			cfg.Workers = workers
			res, _, err := Run(p, cfg, h)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, bare) {
				t.Fatalf("%s: telemetry changed the SearchResult", label)
			}
			rep, err := obs.Replay(&buf)
			if err != nil {
				t.Fatal(err)
			}
			got := replayCounts{rep.Trials, rep.Feasible, rep.Pruned, rep.Serializations,
				rep.Reasons, rep.ChipReasons, rep.Partitions}
			if want := planesReplay[h]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: replay reports %+v, want %+v", label, got, want)
			}
			rejected := res.Trials - res.FeasibleTrials
			if rep.Trials != res.Trials || rep.Feasible != res.FeasibleTrials {
				t.Fatalf("%s: replay %d/%d trials, search %d/%d",
					label, rep.Trials, rep.Feasible, res.Trials, res.FeasibleTrials)
			}
			if rep.Pruned != rejected {
				t.Fatalf("%s: replay pruned %d, search rejected %d", label, rep.Pruned, rejected)
			}
			m := cfg.Metrics.Snapshot().Counters
			if m["core.trials"] != int64(res.Trials) || m["core.trials_feasible"] != int64(res.FeasibleTrials) {
				t.Fatalf("%s: metrics %d/%d trials, search %d/%d", label,
					m["core.trials"], m["core.trials_feasible"], res.Trials, res.FeasibleTrials)
			}
			if m["core.serializations"] != int64(rep.Serializations) {
				t.Fatalf("%s: metrics %d serializations, replay %d",
					label, m["core.serializations"], rep.Serializations)
			}
			if h == Iterative && rep.Serializations == 0 {
				t.Fatalf("%s: no serialization step exercised", label)
			}
			metricReasons := map[string]int{}
			for k, v := range m {
				if r, ok := strings.CutPrefix(k, "core.reject."); ok {
					metricReasons[r] = int(v)
				}
			}
			if !reflect.DeepEqual(metricReasons, rep.Reasons) {
				t.Fatalf("%s: metrics reasons %v, replay %v", label, metricReasons, rep.Reasons)
			}
			perChip := map[string]int{}
			for _, reasons := range rep.ChipReasons {
				for r, n := range reasons {
					perChip[r] += n
				}
			}
			for r, n := range perChip {
				if n != rep.Reasons[r] {
					t.Fatalf("%s: %d %q rejections attributed to chips of %d", label, n, r, rep.Reasons[r])
				}
			}
			fold := cfg.Stats.Snapshot()
			if fold.Trials != int64(res.Trials) || fold.Feasible != int64(res.FeasibleTrials) || !fold.Done() {
				t.Fatalf("%s: stats fold %d/%d done=%v, search %d/%d", label,
					fold.Trials, fold.Feasible, fold.Done(), res.Trials, res.FeasibleTrials)
			}
			foldReasons := map[string]int{}
			for r, n := range fold.Rejects {
				foldReasons[r] = int(n)
			}
			if len(metricReasons) == 0 || !reflect.DeepEqual(foldReasons, metricReasons) {
				t.Fatalf("%s: stats fold rejects %v, metrics %v", label, fold.Rejects, metricReasons)
			}
			if got := cfg.Phases.Snapshot().Trials; got != int64(res.Trials) {
				t.Fatalf("%s: phase accounter saw %d trials, search %d", label, got, res.Trials)
			}
			if w1 == nil {
				w1 = rep
				continue
			}
			if !reflect.DeepEqual(rep.Reasons, w1.Reasons) || !reflect.DeepEqual(rep.ChipReasons, w1.ChipReasons) ||
				rep.Serializations != w1.Serializations {
				t.Fatalf("%s: rejection accounting differs from one worker", label)
			}
		}
	}
}

// TestPlanesAgreeOnFailedShards: a search that fails mid-flight, on an
// injected trial error or panic at one worker or four, leaves the three
// counting planes agreeing: the core.trials counter, the RunStats fold and
// the phase accounter book the same trials, including those of the shards
// that failed or were interrupted.
func TestPlanesAgreeOnFailedShards(t *testing.T) {
	p, base := planesProblem(t)
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Search(p, base, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []string{"error", "panic"} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s/w%d", fault, workers)
			cfg := base
			cfg.Workers = workers
			cfg.Metrics = obs.NewMetrics()
			cfg.Stats = obs.NewRunStats("failed")
			cfg.Phases = obs.NewPhaseAccounter()
			cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=%s:@%d", fault, ref.Trials/2))
			if _, err := Search(p, cfg, preds, Enumeration); err == nil {
				t.Fatalf("%s: the search did not fail", label)
			}
			metrics := cfg.Metrics.Counter("core.trials")
			stats := cfg.Stats.Snapshot().Trials
			phases := cfg.Phases.Snapshot().Trials
			t.Logf("%s: core.trials %d, stats fold %d, accounter %d", label, metrics, stats, phases)
			if metrics == 0 || metrics != stats || metrics != phases {
				t.Fatalf("%s: core.trials %d, stats fold %d, accounter %d; want equal and > 0",
					label, metrics, stats, phases)
			}
		}
	}
}
