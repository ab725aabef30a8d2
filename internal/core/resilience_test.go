package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// runToError runs a checkpointed search expected to fail mid-flight (an
// injected fault) and asserts it did.
func runToError(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, h Heuristic) {
	t.Helper()
	if _, err := Search(p, cfg, preds, h); err == nil {
		t.Fatalf("interrupted %s search did not fail", h)
	}
}

// TestCheckpointResumeByteIdentical is the tentpole durability guarantee:
// a search killed mid-flight and resumed from its checkpoint produces a
// result byte-identical to an uninterrupted run — same counters, same Best
// ordering, same Space sequence — for both heuristics, serial and parallel.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	base := exp1Config()
	base.KeepAll = true
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("h=%s/w=%d", h, workers), func(t *testing.T) {
				cfg := base
				cfg.Workers = workers
				want, err := Search(p, cfg, preds, h)
				if err != nil {
					t.Fatalf("reference search: %v", err)
				}
				// Kill the search deterministically at the very last trial:
				// every earlier shard has then completed (and checkpointed)
				// while the failing shard has not. (An earlier cut can land
				// inside shard 0 — the iterative heuristic front-loads most
				// of its trials into the first interval.)
				at := want.Trials
				if at < 2 {
					t.Fatalf("search too small to interrupt (%d trials)", want.Trials)
				}
				ckpt := filepath.Join(t.TempDir(), "search.ckpt")
				cfg.CheckpointPath = ckpt
				cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", at))
				runToError(t, p, cfg, preds, h)
				if _, err := os.Stat(ckpt); err != nil {
					t.Fatalf("no checkpoint left behind: %v", err)
				}
				cfg.Inject = nil
				cfg.Resume = true
				cfg.Metrics = obs.NewMetrics()
				got, err := Search(p, cfg, preds, h)
				if err != nil {
					t.Fatalf("resumed search: %v", err)
				}
				if n := cfg.Metrics.Counter("resilience.checkpoint_resumed_shards"); n == 0 {
					t.Error("resume restored no shards; test is vacuous")
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("resumed result diverges from uninterrupted run")
				}
				wantJSON, _ := json.Marshal(want)
				gotJSON, _ := json.Marshal(got)
				if string(wantJSON) != string(gotJSON) {
					t.Fatal("resumed result not byte-identical to uninterrupted run")
				}
				// A successful search consumes its checkpoint.
				if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
					t.Errorf("checkpoint not removed after success: %v", err)
				}
			})
		}
	}
}

// TestCheckpointWorkerCountPortability pins the documented resume-vs-worker
// semantics. Enumeration shard geometry derives from the worker count, so a
// checkpoint written at one count does not resume at another — the changed
// shard count is a signature mismatch and the search starts fresh (still
// correct). Iterative shards are the candidate intervals, independent of
// workers, so an iterative checkpoint resumes at any worker count with a
// byte-identical result.
func TestCheckpointWorkerCountPortability(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	base := exp1Config()
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h       Heuristic
		resumes bool
	}{
		{Enumeration, false},
		{Iterative, true},
	} {
		t.Run(tc.h.String(), func(t *testing.T) {
			cfg := base
			cfg.Workers = 4
			want, err := Search(p, cfg, preds, tc.h)
			if err != nil {
				t.Fatal(err)
			}
			// Interrupt a 2-worker run at the last trial, then resume with 4.
			cfg.Workers = 2
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
			cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials))
			runToError(t, p, cfg, preds, tc.h)

			cfg.Workers = 4
			cfg.Inject = nil
			cfg.Resume = true
			cfg.Metrics = obs.NewMetrics()
			got, err := Search(p, cfg, preds, tc.h)
			if err != nil {
				t.Fatalf("resumed search: %v", err)
			}
			resumed := cfg.Metrics.Counter("resilience.checkpoint_resumed_shards")
			mismatch := cfg.Metrics.Counter("resilience.checkpoint_mismatch")
			if tc.resumes && (resumed == 0 || mismatch != 0) {
				t.Errorf("iterative checkpoint did not survive the worker-count change (resumed=%d mismatch=%d)", resumed, mismatch)
			}
			if !tc.resumes && (resumed != 0 || mismatch == 0) {
				t.Errorf("enumeration checkpoint crossed worker counts (resumed=%d mismatch=%d)", resumed, mismatch)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("result after worker-count change diverges from reference")
			}
		})
	}
}

// TestCheckpointSignatureMismatchStartsFresh: a checkpoint taken under one
// configuration must not leak into a search with different knobs — the
// mismatch is detected and the run starts from scratch, still correct.
func TestCheckpointSignatureMismatchStartsFresh(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "search.ckpt")
	cfg.CheckpointPath = ckpt
	cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials/2))
	runToError(t, p, cfg, preds, Enumeration)

	// Same checkpoint file, different performance bound: must not resume.
	cfg.Inject = nil
	cfg.Resume = true
	cfg.Constraints.Perf.Bound *= 2
	cfg.Metrics = obs.NewMetrics()
	if _, err := Search(p, cfg, preds, Enumeration); err != nil {
		t.Fatalf("fresh-start search failed: %v", err)
	}
	if n := cfg.Metrics.Counter("resilience.checkpoint_mismatch"); n == 0 {
		t.Error("signature mismatch not detected")
	}
	if n := cfg.Metrics.Counter("resilience.checkpoint_resumed_shards"); n != 0 {
		t.Errorf("resumed %d shards from a foreign checkpoint", n)
	}
}

// TestCheckpointSurvivesCancel: a cancelled search keeps every shard it
// completed on disk. A Workers-1 search of four shards is cancelled at the
// tally point of its third shard, which the worker writes before it
// appends that shard's record; the first three shards must resume exactly,
// and cancelling must not fail a checkpoint write.
func TestCheckpointSurvivesCancel(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.Workers = 1
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := cfg
	cut.Ctx = ctx
	cut.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	cut.Metrics = obs.NewMetrics()
	cut.Trace = obs.New(obs.PushSink(func(ev obs.Event) {
		if ev.Kind == obs.KindPoint && ev.Name == "tally" && ev.Fields["shard"] == 2 {
			cancel()
		}
	}))
	if _, err := Search(p, cut, preds, Enumeration); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cut.Metrics.Counter("resilience.checkpoint_save_failed"); n != 0 {
		t.Errorf("cancelling failed %d checkpoint writes", n)
	}

	resume := cfg
	resume.CheckpointPath = cut.CheckpointPath
	resume.Resume = true
	resume.Metrics = obs.NewMetrics()
	got, err := Search(p, resume, preds, Enumeration)
	if err != nil {
		t.Fatalf("resumed search: %v", err)
	}
	if n := resume.Metrics.Counter("resilience.checkpoint_resumed_shards"); n != 3 {
		t.Errorf("resumed %d shards, want the 3 completed before the cancel", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed result diverges from uninterrupted run")
	}
}

// interruptedLog runs a Workers-1 checkpointed search that fails at its
// last trial and returns the log it leaves behind: the header and the
// records of the first three of its four shards.
func interruptedLog(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, want SearchResult) []byte {
	t.Helper()
	cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials))
	runToError(t, p, cfg, preds, Enumeration)
	blob, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(blob, []byte{'\n'}); lines != 4 {
		t.Fatalf("interrupted log has %d lines, want a header and 3 shards", lines)
	}
	return blob
}

// logProblem is the four-shard search the shard-log tests interrupt and
// resume, with its uninterrupted result.
func logProblem(t *testing.T) (*Partitioning, Config, []bad.Result, SearchResult) {
	t.Helper()
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.KeepAll = true
	cfg.Workers = 1
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	return p, cfg, preds, want
}

// resumeFrom writes blob as the log (nil: no file), resumes the search from
// it and requires the uninterrupted result, byte for byte. It returns the
// run's metrics.
func resumeFrom(t *testing.T, p *Partitioning, cfg Config, preds []bad.Result, want SearchResult, blob []byte) *obs.Metrics {
	t.Helper()
	os.Remove(cfg.CheckpointPath)
	if blob != nil {
		if err := os.WriteFile(cfg.CheckpointPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Resume = true
	cfg.Metrics = obs.NewMetrics()
	got, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatalf("resumed search: %v", err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("resumed result not byte-identical to uninterrupted run")
	}
	return cfg.Metrics
}

// TestShardLogRoundTrip: shards appended to a log, in any order, come back
// byte for byte from a resume of the same plan, and the log leaves no other
// file beside it.
func TestShardLogRoundTrip(t *testing.T) {
	_, _, _, full := logProblem(t)
	dir := t.TempDir()
	cfg := Config{CheckpointPath: filepath.Join(dir, "search.ckpt"), Metrics: obs.NewMetrics()}
	in := map[int]*SearchResult{2: &full, 0: {Heuristic: Iterative, Trials: 7, FeasibleTrials: 3}}
	l, done := OpenShardLog(cfg, "sig", 4, nil)
	if done != nil {
		t.Fatalf("a fresh log restored %d shards", len(done))
	}
	for _, si := range []int{2, 0} {
		if err := l.Append(si, in[si]); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	cfg.Resume = true
	l, out := OpenShardLog(cfg, "sig", 4, nil)
	defer l.Remove()
	if len(out) != len(in) {
		t.Fatalf("resumed %d shards, want %d", len(out), len(in))
	}
	for si, want := range in {
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(out[si])
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("shard %d not byte-identical after the round trip", si)
		}
	}
	for name, want := range map[string]int64{"saves": 2, "resumed_shards": 2, "save_failed": 0} {
		if n := cfg.Metrics.Counter("resilience.checkpoint_" + name); n != want {
			t.Errorf("resilience.checkpoint_%s = %d, want %d", name, n, want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("stray files beside the log: %v", entries)
	}
}

// TestShardLogResumesFullShardLists: a log whose shard records list every
// feasible design of their shard, as the oracle's per-shard walks book
// them and as shard logs were written before the search kept only each
// shard's frontier, resumes to the uninterrupted result byte for byte. The
// search's own log of the same shards is shorter: its records hold only
// each shard's frontier.
func TestShardLogResumesFullShardLists(t *testing.T) {
	p, cfg, preds, want := logProblem(t)
	blob := interruptedLog(t, p, cfg, preds, want)
	header, _, _ := bytes.Cut(blob, []byte{'\n'})
	full := oracleShards(t, p, cfg, preds, Enumeration, 0)
	old := append(bytes.Clone(header), '\n')
	for si := 0; si < 3; si++ {
		rec, err := json.Marshal(shardLogRecord{Shard: si, Result: full[si]})
		if err != nil {
			t.Fatal(err)
		}
		old = append(append(old, rec...), '\n')
	}
	if len(old) <= len(blob) {
		t.Fatalf("the log of full shard lists has %d bytes, the search's own %d", len(old), len(blob))
	}
	if n := resumeFrom(t, p, cfg, preds, want, old).Counter("resilience.checkpoint_resumed_shards"); n != 3 {
		t.Fatalf("resumed %d shards, want 3", n)
	}
}

// TestShardLogResumesTornTail: a log cut in the middle of a record resumes
// the shards before the cut, and the next append lands right behind them,
// where the torn bytes were.
func TestShardLogResumesTornTail(t *testing.T) {
	p, cfg, preds, want := logProblem(t)
	full := interruptedLog(t, p, cfg, preds, want)
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	torn := full[:last+(len(full)-last)/2]

	m := resumeFrom(t, p, cfg, preds, want, torn)
	if n := m.Counter("resilience.checkpoint_resumed_shards"); n != 2 {
		t.Fatalf("resumed %d shards, want the 2 before the cut", n)
	}
	// Resume the torn log again, interrupted at the last trial: the re-run
	// third shard must be appended where its torn record was.
	if err := os.WriteFile(cfg.CheckpointPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	restored := 0
	for _, line := range bytes.Split(full[:last], []byte{'\n'})[1:3] {
		var rec shardLogRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		restored += rec.Result.Trials
	}
	cfg.Inject = resilience.MustParse(fmt.Sprintf("core.trial=error:@%d", want.Trials-restored))
	runToError(t, p, cfg, preds, Enumeration)
	if after, _ := os.ReadFile(cfg.CheckpointPath); !bytes.Equal(after, full) {
		t.Fatal("log after the re-run differs from the uncut log")
	}
}

// TestShardLogHeaderOnlyResumesNothing: a matching header with no records
// is a valid empty log. Resuming it restores nothing without counting a
// skip or a mismatch, and the first record follows the header.
func TestShardLogHeaderOnlyResumesNothing(t *testing.T) {
	p, cfg, preds, want := logProblem(t)
	full := interruptedLog(t, p, cfg, preds, want)
	header := full[:bytes.IndexByte(full, '\n')+1]

	m := resumeFrom(t, p, cfg, preds, want, header)
	for _, name := range []string{"resumed_shards", "load_skipped", "mismatch"} {
		if n := m.Counter("resilience.checkpoint_" + name); n != 0 {
			t.Errorf("resilience.checkpoint_%s = %d, want 0", name, n)
		}
	}
	if err := os.WriteFile(cfg.CheckpointPath, header, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	if got := interruptedLog(t, p, cfg, preds, want); !bytes.Equal(got, full) {
		t.Fatal("records appended to a header-only log differ from a fresh log")
	}
}

// TestShardLogForeignFileStartsFresh: an empty file, garbage, a future
// version or a leftover snapshot envelope of the retired chop/search-shards
// kind is skipped, a log of another plan is a mismatch, and a missing file
// counts nothing; either way the search starts fresh and is still correct.
func TestShardLogForeignFileStartsFresh(t *testing.T) {
	p, cfg, preds, want := logProblem(t)
	other := filepath.Join(t.TempDir(), "other.ckpt")
	foreign, _ := OpenShardLog(Config{CheckpointPath: other}, "0000", 4, nil)
	if err := foreign.Append(0, &SearchResult{Trials: 999}); err != nil {
		t.Fatal(err)
	}
	foreign.Close()
	otherPlan, err := os.ReadFile(other)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		blob    []byte // nil: no file
		counter string // "": none of load_skipped, mismatch, resumed_shards
	}{
		{"missing", nil, ""},
		{"empty", []byte{}, "load_skipped"},
		{"garbage", []byte("{torn\n"), "load_skipped"},
		{"future-version", []byte(`{"version":2,"kind":"chop/shard-log","signature":"0000","shards":4}` + "\n"), "load_skipped"},
		{"search-shards-envelope", []byte(`{"version":1,"kind":"chop/search-shards","data":{"signature":"0000","shards":4,"done":{"0":{"Trials":999}}}}`), "load_skipped"},
		{"other-plan", otherPlan, "mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := resumeFrom(t, p, cfg, preds, want, tc.blob)
			for _, c := range []string{"load_skipped", "mismatch", "resumed_shards"} {
				want := int64(0)
				if c == tc.counter {
					want = 1
				}
				if n := m.Counter("resilience.checkpoint_" + c); n != want {
					t.Errorf("resilience.checkpoint_%s = %d, want %d", c, n, want)
				}
			}
		})
	}
}

// TestSearchSurvivesPanickingPredictor is the satellite regression test: a
// predictor that panics during the search pipeline must surface as an error
// from Run, not crash the process, and must be visible in metrics.
func TestSearchSurvivesPanickingPredictor(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.Workers = 4
	cfg.Inject = resilience.MustParse("bad.predict=panic:@1")
	cfg.Metrics = obs.NewMetrics()
	_, _, err := Run(p, cfg, Enumeration)
	if err == nil {
		t.Fatal("Run with panicking predictor returned nil error")
	}
	pe, ok := resilience.IsPanic(err)
	if !ok {
		t.Fatalf("error is not a recovered panic: %v", err)
	}
	if pe.Site != "bad.predict" {
		t.Errorf("panic site = %q", pe.Site)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if n := cfg.Metrics.Counter("resilience.panic_recovered"); n == 0 {
		t.Error("resilience.panic_recovered not incremented")
	}
}

// TestSearchSurvivesPanickingTrial: a panic in the middle of trial
// evaluation — at one worker or several — fails the search with a
// structured error instead of killing the process, and the surviving
// shards' partial counts still merge. The panic crosses two guards (its
// shard's, then the search's) but counts exactly once.
func TestSearchSurvivesPanickingTrial(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	base := exp1Config()
	preds, err := PredictPartitions(p, base)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Search(p, base, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			cfg := base
			cfg.Workers = workers
			cfg.Inject = resilience.MustParse(
				fmt.Sprintf("core.trial=panic:@%d", ref.Trials/2))
			cfg.Metrics = obs.NewMetrics()
			res, err := Search(p, cfg, preds, Enumeration)
			if err == nil {
				t.Fatal("search with panicking trial returned nil error")
			}
			if _, ok := resilience.IsPanic(err); !ok {
				t.Fatalf("error is not a recovered panic: %v", err)
			}
			if n := cfg.Metrics.Counter("resilience.panic_recovered"); n != 1 {
				t.Errorf("resilience.panic_recovered = %d, want 1", n)
			}
			if workers > 1 && res.Trials == 0 {
				t.Error("no partial trials merged from surviving shards")
			}
		})
	}
}

// TestCheckpointSaveFailureDoesNotKillSearch: checkpoint durability is
// best-effort — a sink that always fails (after the built-in retries) is
// counted but never aborts the search.
func TestCheckpointSaveFailureDoesNotKillSearch(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.Workers = 2
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	cfg.Inject = resilience.MustParse("checkpoint.save=error:/1")
	cfg.Metrics = obs.NewMetrics()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Search(p, Config{
		Lib: cfg.Lib, Style: cfg.Style, Clocks: cfg.Clocks,
		Constraints: cfg.Constraints, MaxBusPins: cfg.MaxBusPins,
	}, preds, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Search(p, cfg, preds, Enumeration)
	if err != nil {
		t.Fatalf("search failed on checkpoint-save faults: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("checkpoint-save faults changed the search result")
	}
	if n := cfg.Metrics.Counter("resilience.checkpoint_save_failed"); n == 0 {
		t.Error("failed saves not counted")
	}
}

// TestInjectedErrorIsDistinguishable: faults injected via the harness are
// marked, so tests and chaos tooling can tell them from organic failures.
func TestInjectedErrorIsDistinguishable(t *testing.T) {
	p := arPartitioning(t, 1, 1)
	cfg := exp1Config()
	cfg.Inject = resilience.MustParse("core.trial=error:@1")
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Search(p, cfg, preds, Enumeration)
	if !resilience.IsInjected(err) {
		t.Fatalf("injected fault not recognizable: %v", err)
	}
	var ie *resilience.InjectedError
	if !errors.As(err, &ie) || ie.Site != "core.trial" {
		t.Fatalf("injected error = %+v", err)
	}
}
