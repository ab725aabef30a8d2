package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

// recordSink decodes the JSONL records a Snapshotter writes, one per
// Write; it is safe to read while the sampler goroutine runs.
type recordSink struct {
	mu   sync.Mutex
	recs []StatsRecord
}

func (w *recordSink) Write(p []byte) (int, error) {
	var rec StatsRecord
	if err := json.Unmarshal(p, &rec); err != nil {
		return 0, err
	}
	w.mu.Lock()
	w.recs = append(w.recs, rec)
	w.mu.Unlock()
	return len(p), nil
}

// last returns the most recent record written and whether one exists.
func (w *recordSink) last() (StatsRecord, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.recs) == 0 {
		return StatsRecord{}, false
	}
	return w.recs[len(w.recs)-1], true
}

// TestSnapshotterDeltasAndRing checks sequence numbers and counter deltas
// across successive samples.
func TestSnapshotterDeltasAndRing(t *testing.T) {
	m := NewMetrics()
	s := NewSnapshotter(SnapshotterOptions{Metrics: m})

	m.Add("core.trials", 10)
	r1 := s.Tick()
	if r1.Seq != 1 || r1.Counters["core.trials"] != 10 {
		t.Fatalf("first record wrong: %+v", r1)
	}
	if r1.Run != nil {
		t.Fatalf("record without attached stats carries a run fold: %+v", r1.Run)
	}
	if r1.CounterDeltas != nil {
		t.Fatalf("first record carries deltas: %+v", r1.CounterDeltas)
	}

	m.Add("core.trials", 5)
	m.Inc("core.reject.perf")
	r2 := s.Tick()
	if r2.CounterDeltas["core.trials"] != 5 || r2.CounterDeltas["core.reject.perf"] != 1 {
		t.Fatalf("deltas wrong: %+v", r2.CounterDeltas)
	}

	// An unmoved counter produces no delta entry.
	r3 := s.Tick()
	if r3.Seq != 3 || len(r3.CounterDeltas) != 0 {
		t.Fatalf("unmoved counters produced deltas: %+v", r3)
	}
}

func TestSnapshotterJSONLAndRunStats(t *testing.T) {
	var buf bytes.Buffer
	rs := NewRunStats("run-7")
	s := NewSnapshotter(SnapshotterOptions{Metrics: NewMetrics(), Stats: rs, Out: &buf})
	s.Tick()

	rs.StartSearch(1, 10)
	addTrials(rs, 0, 3, 1)
	s.Tick()

	sc := bufio.NewScanner(&buf)
	var recs []StatsRecord
	for sc.Scan() {
		var rec StatsRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 {
		t.Fatalf("wrote %d records, want 2", len(recs))
	}
	if recs[0].Run == nil || recs[0].Run.Trials != 0 {
		t.Fatalf("record before the search has run fold %+v, want zero trials", recs[0].Run)
	}
	if recs[1].Run == nil || recs[1].Run.Trials != 3 || recs[1].Run.Label != "run-7" {
		t.Fatalf("embedded run fold wrong: %+v", recs[1].Run)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("unexpected write error: %v", err)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

func TestSnapshotterWriteErrorLatches(t *testing.T) {
	wantErr := errors.New("disk full")
	s := NewSnapshotter(SnapshotterOptions{Metrics: NewMetrics(), Out: failingWriter{wantErr}})
	s.Tick()
	s.Tick()
	if err := s.Err(); !errors.Is(err, wantErr) {
		t.Fatalf("Err() = %v, want %v", err, wantErr)
	}
}

func TestSnapshotterRunStop(t *testing.T) {
	var out recordSink
	s := NewSnapshotter(SnapshotterOptions{Metrics: NewMetrics(), Out: &out})
	s.Run(time.Millisecond)
	s.Run(time.Millisecond) // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := out.last(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic sampler never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	last, _ := out.last()
	s.Stop() // idempotent; still takes a final sample
	if l2, _ := out.last(); l2.Seq <= last.Seq {
		t.Fatalf("Stop did not take a final sample: %d then %d", last.Seq, l2.Seq)
	}
}

func TestNilSnapshotterIsNoOp(t *testing.T) {
	var s *Snapshotter
	if rec := s.Tick(); rec.Seq != 0 {
		t.Fatalf("nil Tick = %+v", rec)
	}
	s.Run(time.Millisecond)
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
}
