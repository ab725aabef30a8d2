package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chop/internal/obs"
	"chop/internal/serve"
)

func sampleSnapshot() obs.RunStatsSnapshot {
	return obs.RunStatsSnapshot{
		Label: "r-1", Started: true, ElapsedSec: 2,
		Trials: 50, Total: 100, Feasible: 10,
		TrialsPerSec: 25, ETASec: 2, Shards: 2, ShardsDone: 1,
		CacheHits: 3, CacheMisses: 1, CacheHitRate: 0.75,
		CheckpointSaves: 2, CheckpointLag: 1, CheckpointAgeSec: 0.5,
		ShardTable: []obs.ShardSnapshot{
			{Index: 0, Trials: 50, Total: 50, Feasible: 10, TrialsPerSec: 25, State: "done"},
			{Index: 1, Total: 50, State: "pending"},
		},
		SlowTrials: []obs.Exemplar{
			{DurUS: 1234, Shard: 0, II: 7, Feasible: false, Reason: "area"},
		},
	}
}

func TestRenderSnapshot(t *testing.T) {
	out := renderSnapshot(sampleSnapshot())
	for _, want := range []string{
		"50/100 trials", "10 feasible", "25 trials/s", "eta 2.0s",
		"shards 1/2 done", "[####################--------------------]  50%",
		"3 hits / 1 misses (75.0% hit)",
		"2 saves, lag 1 shard(s)",
		"done", "pending",
		"1234 µs", "rejected (area)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if out := renderSnapshot(obs.RunStatsSnapshot{}); !strings.Contains(out, "search not started") {
		t.Errorf("idle frame wrong:\n%s", out)
	}
}

func TestRenderServerFrame(t *testing.T) {
	st := serve.ServerStats{
		QueueDepth: 3, MaxConcurrent: 4, RunsInFlight: 2, Occupancy: 0.5,
		Runs:         map[string]int{"running": 2, "done": 5},
		Cache:        &serve.CacheView{Hits: 10, Misses: 5, HitRate: 2.0 / 3},
		Resilience:   map[string]int64{"checkpoint_saves": 3},
		HTTPRequests: 42,
		Active:       []obs.RunStatsSnapshot{sampleSnapshot()},
	}
	out := renderServerFrame("http://x:1", st)
	for _, want := range []string{
		"2/4 busy (50%)", "queue 3", "42 requests",
		"5 done, 2 running", "10 hits / 5 misses",
		"checkpoint_saves=3", "active searches (1)", "r-1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("server frame missing %q:\n%s", want, out)
		}
	}
	st.Active = nil
	if out := renderServerFrame("http://x:1", st); !strings.Contains(out, "no active searches") {
		t.Errorf("idle server frame wrong:\n%s", out)
	}
}

// TestLastStatsRecord: the tail decodes only what was appended since its
// last read, leaves a partial last line for the next one and starts over
// when the file shrinks.
func TestLastStatsRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.jsonl")
	write := func(flag int, s string) {
		t.Helper()
		f, err := os.OpenFile(path, flag|os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tail := statsTail{path: path}
	read := func(wantFresh bool, wantTrials int64, wantN int) {
		t.Helper()
		fresh, err := tail.read()
		if err != nil {
			t.Fatal(err)
		}
		if fresh != wantFresh || tail.last.Trials != wantTrials || tail.n != wantN {
			t.Fatalf("read: fresh %v, trials %d, n %d; want %v, %d, %d",
				fresh, tail.last.Trials, tail.n, wantFresh, wantTrials, wantN)
		}
	}
	// A trailing partial line is a sample being written right now.
	write(os.O_TRUNC, "{\"trials\":1}\n\n{\"trials\":2}\n{\"trials\":3,\"tot")
	read(true, 2, 2)
	read(false, 2, 2)
	// One append completes the partial line and adds a record.
	write(os.O_APPEND, "al\":9}\n{\"trials\":4}\n")
	read(true, 4, 4)
	// A new run truncates the file: the tail reads it from the start.
	write(os.O_TRUNC, "{\"trials\":7}\n")
	read(true, 7, 1)
}

func TestBarAndETA(t *testing.T) {
	if got := bar(5, 10, 10); got != "[#####-----]  50%" {
		t.Fatalf("bar = %q", got)
	}
	if got := bar(20, 10, 4); got != "[####] 100%" {
		t.Fatalf("overfull bar = %q", got)
	}
	if got := bar(1, 0, 4); got != "" {
		t.Fatalf("bar without total = %q", got)
	}
	for secs, want := range map[float64]string{30: "30.0s", 90: "1.5m", 7200: "2.0h"} {
		if got := fmtETA(secs); got != want {
			t.Fatalf("fmtETA(%v) = %q, want %q", secs, got, want)
		}
	}
}
