package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/obs"
)

// TestProgressContent: the line reports the prediction stage from the
// snapshot's phases block until a search starts, then the search's trials
// against the planned total, its feasible count and the trial rate.
func TestProgressContent(t *testing.T) {
	stats, phases := obs.NewRunStats("test"), obs.NewPhaseAccounter()
	stats.AttachPhases(phases)
	p := &progress{stats: stats, start: time.Unix(1000, 0), last: time.Unix(1000, 0)}
	phases.End(phases.Begin(), obs.PhasePredict)
	phases.End(phases.Begin(), obs.PhasePredict)
	line := p.line(time.Unix(1001, 0))
	for _, want := range []string{"chop: PredictPartitions ", "predictions=2", "trials=0 ", "elapsed=1s"} {
		if !strings.Contains(line, want) {
			t.Errorf("prediction line %q missing %q", line, want)
		}
	}

	stats.StartSearch(2, 40)
	stats.StartShard(0, 20)
	stats.Add(obs.ShardTally{Shard: 0, Trials: 9, Feasible: 3})
	line = p.line(time.Unix(1003, 0))
	for _, want := range []string{"chop: Search ", "predictions=2", "trials=9/40", "feasible=3", "(4 trials/s)", "elapsed=3s"} {
		if !strings.Contains(line, want) {
			t.Errorf("search line %q missing %q", line, want)
		}
	}
}

// TestProgressWithoutTraceBuildsNoTracer: -progress reads the RunStats
// fold -stats-out samples, so it attaches no tracer; given both flags, the
// two share one. The phase accounter is attached to the RunStats from the
// start, so a prediction shows in the fold before any search runs.
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

// lineWriter hands every write to a channel, so a test can wait for the
// progress goroutine's output.
type lineWriter chan string

func (w lineWriter) Write(b []byte) (int, error) {
	w <- string(b)
	return len(b), nil
}

// TestProgressThrottle: lines come from a ticker, the first no earlier
// than one interval after the start, and finish adds the final line.
func TestProgressThrottle(t *testing.T) {
	// Buffered so ticks landing while the test is between reads never
	// block the goroutine finish waits for.
	lines := make(lineWriter, 16)
	start := time.Now()
	p := startProgress(lines, obs.NewRunStats("test"))
	<-lines
	if d := time.Since(start); d < progressInterval {
		t.Fatalf("first line after %v, inside the %v interval", d, progressInterval)
	}
	p.finish()
	if final := <-lines; !strings.HasPrefix(final, "chop: PredictPartitions ") {
		t.Fatalf("final line %q", final)
	}
}
