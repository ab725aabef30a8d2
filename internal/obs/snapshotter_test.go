package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

func TestSnapshotterDeltasAndRing(t *testing.T) {
	m := NewMetrics()
	s := NewSnapshotter(SnapshotterOptions{Metrics: m, RingCapacity: 3})

	m.Add("core.trials", 10)
	r1 := s.Tick()
	if r1.Seq != 1 || r1.Counters["core.trials"] != 10 {
		t.Fatalf("first record wrong: %+v", r1)
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
	if len(r3.CounterDeltas) != 0 {
		t.Fatalf("unmoved counters produced deltas: %+v", r3.CounterDeltas)
	}

	s.Tick() // 4th: ring capacity 3 drops the oldest
	hist := s.History()
	if len(hist) != 3 || hist[0].Seq != 2 || hist[2].Seq != 4 {
		t.Fatalf("ring history wrong: %+v", hist)
	}
	last, ok := s.Last()
	if !ok || last.Seq != 4 {
		t.Fatalf("last = %+v ok=%v", last, ok)
	}
}

func TestSnapshotterJSONLAndRunStats(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics()
	s := NewSnapshotter(SnapshotterOptions{Metrics: m, Out: &buf})
	s.Tick()

	rs := NewRunStats("run-7")
	rs.StartSearch(1, 10)
	addTrials(rs.ShardStats(0), 3, 1)
	s.SetStats(rs)
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
	if recs[0].Run != nil {
		t.Fatalf("record before SetStats carries run stats: %+v", recs[0].Run)
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
	m := NewMetrics()
	s := NewSnapshotter(SnapshotterOptions{Metrics: m})
	s.Run(time.Millisecond)
	s.Run(time.Millisecond) // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Last(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic sampler never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	last, _ := s.Last()
	s.Stop() // idempotent; still takes a final sample
	if l2, _ := s.Last(); l2.Seq <= last.Seq {
		t.Fatalf("Stop did not take a final sample: %d then %d", last.Seq, l2.Seq)
	}
}

func TestNilSnapshotterIsNoOp(t *testing.T) {
	var s *Snapshotter
	s.SetStats(nil)
	if rec := s.Tick(); rec.Seq != 0 {
		t.Fatalf("nil Tick = %+v", rec)
	}
	if h := s.History(); h != nil {
		t.Fatalf("nil History = %+v", h)
	}
	if _, ok := s.Last(); ok {
		t.Fatal("nil Last reports a record")
	}
	s.Run(time.Millisecond)
	s.Stop()
	if err := s.Err(); err != nil {
		t.Fatalf("nil Err = %v", err)
	}
}
