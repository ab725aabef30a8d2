package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/obs"
	"chop/internal/spec"
)

// TestProgressContent: the line reports the prediction stage from the
// snapshot's phases block until a search starts, then the search's trials
// against the planned total, its feasible count and the trial rate.
func TestProgressContent(t *testing.T) {
	stats, phases := obs.NewRunStats("test"), obs.NewPhaseAccounter()
	stats.AttachPhases(phases)
	s := &sampler{stats: stats, start: time.Unix(1000, 0), last: time.Unix(1000, 0)}
	phases.End(phases.Begin(), obs.PhasePredict)
	phases.End(phases.Begin(), obs.PhasePredict)
	line := s.line(stats.Snapshot(), time.Unix(1001, 0))
	for _, want := range []string{"chop: PredictPartitions ", "predictions=2", "trials=0 ", "elapsed=1s"} {
		if !strings.Contains(line, want) {
			t.Errorf("prediction line %q missing %q", line, want)
		}
	}

	stats.StartSearch(2, 40)
	stats.StartShard(0, 20)
	stats.Add(obs.ShardTally{Shard: 0, Trials: 9, Feasible: 3})
	line = s.line(stats.Snapshot(), time.Unix(1003, 0))
	for _, want := range []string{"chop: Search ", "predictions=2", "trials=9/40", "feasible=3", "(4 trials/s)", "elapsed=3s"} {
		if !strings.Contains(line, want) {
			t.Errorf("search line %q missing %q", line, want)
		}
	}
}

// TestProgressWithoutTraceBuildsNoTracer: -progress and -stats-out read
// one RunStats fold, so neither attaches a tracer; given both flags, the
// two share one sampler. The phase accounter is attached to the RunStats
// from the start, so a prediction shows in the fold before any search
// runs.
func TestProgressWithoutTraceBuildsNoTracer(t *testing.T) {
	for _, args := range [][]string{
		{"-progress"},
		{"-progress", "-stats-out", filepath.Join(t.TempDir(), "stats.jsonl")},
	} {
		of := parseObs(t, args...)
		var cfg core.Config
		finish, err := of.attach(&cfg)
		if err == nil {
			err = finish()
		}
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Trace != nil {
			t.Fatalf("%v built a tracer", args)
		}
		if cfg.Stats == nil || cfg.Phases == nil {
			t.Fatalf("%v attached no RunStats/PhaseAccounter pair", args)
		}
		cfg.Phases.End(cfg.Phases.Begin(), obs.PhasePredict)
		if ps := cfg.Stats.Snapshot().Phases; ps == nil || ps.Trials != 0 || len(ps.Phases) != 1 || ps.Phases[0].Count != 1 {
			t.Fatalf("%v: the fold's phases block %+v, want one predict bracket", args, ps)
		}
	}
}

// TestAttachStatsOut: -stats-out alone attaches the fold and nothing else,
// and every line of the file is one RunStatsSnapshot, the document the
// serve API returns under "stats", ending with the run's terminal fold.
func TestAttachStatsOut(t *testing.T) {
	prob, err := spec.Example().Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	of := parseObs(t, "-stats-out", path)
	finish, err := of.attach(&prob.Config)
	if err != nil {
		t.Fatal(err)
	}
	if prob.Config.Trace != nil || prob.Config.Metrics != nil {
		t.Fatalf("-stats-out attached a tracer (%v) or a registry (%v)",
			prob.Config.Trace != nil, prob.Config.Metrics != nil)
	}
	res, _, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if ferr := finish(); err == nil {
		err = ferr
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var last obs.RunStatsSnapshot
	for _, line := range lines {
		last = obs.RunStatsSnapshot{}
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	if !last.Done() || last.Label != "test" {
		t.Fatalf("last line is not the terminal fold of run \"test\": %+v", last)
	}
	if last.Trials != int64(res.Trials) || last.Feasible != int64(res.FeasibleTrials) {
		t.Fatalf("last line has %d trials, %d feasible; the search ran %d, %d feasible",
			last.Trials, last.Feasible, res.Trials, res.FeasibleTrials)
	}
}

// lineWriter hands every write to a channel, so a test can wait for the
// sampler goroutine's output.
type lineWriter chan string

func (w lineWriter) Write(b []byte) (int, error) {
	w <- string(b)
	return len(b), nil
}

// TestProgressThrottle: lines come from a ticker, the first no earlier
// than one interval after the start, and finish adds the final line and
// the final -stats-out record.
func TestProgressThrottle(t *testing.T) {
	// Buffered so ticks landing while the test is between reads never
	// block the goroutine finish waits for.
	lines := make(lineWriter, 16)
	var out bytes.Buffer
	start := time.Now()
	s := startSampler(obs.NewRunStats("test"), lines, &out)
	<-lines
	if d := time.Since(start); d < sampleInterval {
		t.Fatalf("first line after %v, inside the %v interval", d, sampleInterval)
	}
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	for len(lines) > 1 { // ticks that landed before finish
		<-lines
	}
	if final := <-lines; !strings.HasPrefix(final, "chop: PredictPartitions ") {
		t.Fatalf("final line %q", final)
	}
	recs := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(recs) < 2 {
		t.Fatalf("-stats-out got %d records, want a tick's and finish's", len(recs))
	}
	var sn obs.RunStatsSnapshot
	if err := json.Unmarshal([]byte(recs[len(recs)-1]), &sn); err != nil || sn.Label != "test" || sn.Started {
		t.Fatalf("final record %q (%v), want run \"test\" before its search", recs[len(recs)-1], err)
	}
}

// TestSamplerRunStop: with -stats-out alone the ticker still appends
// records, and finish appends one more, sampled at stop: the last record
// shows the search that started after the first tick.
func TestSamplerRunStop(t *testing.T) {
	recs := make(lineWriter, 16) // buffered as in TestProgressThrottle
	stats := obs.NewRunStats("test")
	s := startSampler(stats, nil, recs)
	var sn obs.RunStatsSnapshot
	if first := <-recs; json.Unmarshal([]byte(first), &sn) != nil || sn.Started {
		t.Fatalf("first tick's record %q, want run \"test\" before its search", first)
	}
	stats.StartSearch(1, 10)
	if err := s.finish(); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("finish took no final sample")
	}
	for len(recs) > 1 { // ticks that landed before finish
		<-recs
	}
	sn = obs.RunStatsSnapshot{}
	if final := <-recs; json.Unmarshal([]byte(final), &sn) != nil || !sn.Started || sn.Total != 10 {
		t.Fatalf("final record %q, want the search of 10 trials that started before finish", final)
	}
}

// failWriter fails every write, with a different error after the first.
type failWriter struct{ calls int }

var errFirstWrite = errors.New("disk full")

func (w *failWriter) Write([]byte) (int, error) {
	w.calls++
	if w.calls == 1 {
		return 0, errFirstWrite
	}
	return 0, errors.New("later write")
}

// TestSamplerWriteErrorLatches: a -stats-out write error stops later
// writes to the file, finish returns it, and the -progress lines keep
// coming.
func TestSamplerWriteErrorLatches(t *testing.T) {
	lines := make(lineWriter, 16) // buffered as in TestProgressThrottle
	var out failWriter
	s := startSampler(obs.NewRunStats("test"), lines, &out)
	<-lines // the first tick: its record's write fails
	if err := s.finish(); !errors.Is(err, errFirstWrite) {
		t.Fatalf("finish = %v, want %v", err, errFirstWrite)
	}
	if out.calls != 1 {
		t.Fatalf("%d writes to the failed file, want 1", out.calls)
	}
	if final := <-lines; !strings.HasPrefix(final, "chop: ") {
		t.Fatalf("no progress line after the write error: %q", final)
	}
}
