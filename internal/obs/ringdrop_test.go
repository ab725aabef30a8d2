package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingSinkExactDropAccounting pins the RingSub contract under real
// contention: with several concurrent writers and a reader that drains in
// bursts (stalling in between, forcing evictions), every emitted event is
// either delivered on the channel or counted in Dropped() — no event is
// lost unaccounted, and no wakeup is lost (the reader always sees the
// channel close after the sink closes).
func TestRingSinkExactDropAccounting(t *testing.T) {
	const writers, perWriter = 4, 2000
	ring := NewRingSink(64)
	_, sub := ring.Subscribe(32) // small buffer: evictions guaranteed

	var received int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		i := 0
		for range sub.Events() {
			received++
			// Stall periodically so the writers outrun the 32-slot buffer
			// and push() has to evict.
			if i++; i%100 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ring.Emit(Event{Kind: KindPoint, Name: "trial",
					Fields: map[string]any{"w": w, "i": i}})
			}
		}(w)
	}
	wg.Wait()
	ring.Close() // closes sub's channel after pending events drain

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reader never observed the channel close (lost wakeup)")
	}

	total := int64(writers * perWriter)
	if got := received + sub.Dropped(); got != total {
		t.Fatalf("delivered %d + dropped %d = %d, want exactly %d emitted",
			received, sub.Dropped(), got, total)
	}
	if sub.Dropped() == 0 {
		t.Log("warning: no drops occurred; eviction path not exercised this run")
	}
	// The replay ring kept the newest capacity events and counted every
	// overwrite of an older one.
	if ring.Len() != ring.Cap() {
		t.Fatalf("ring retained %d of %d", ring.Len(), ring.Cap())
	}
	if ow := ring.Overwritten(); ow != total-int64(ring.Cap()) {
		t.Fatalf("overwritten %d, want %d", ow, total-int64(ring.Cap()))
	}
}

// TestReplayDemuxesCollidingLocalSpanIDs pins the begin-table demux: two
// processes' JSONL files interleaved into one reader collide on local span
// IDs (both tracers number from 1) but carry distinct trace IDs, and the
// replayer must attribute each end event's begin-side fields to its own
// tracer. With a single shared begin table, trace B's "BAD" begin would
// overwrite trace A's span-1 entry, so A's kept count would land on B's
// partition and B's end would find nothing.
func TestReplayDemuxesCollidingLocalSpanIDs(t *testing.T) {
	mkTrace := func(trace string, partition, kept int) []string {
		tally := map[string]any{"trials": 1, "feasible": 1}
		if partition != 1 {
			tally = map[string]any{"trials": 1, "feasible": 0, "rejects": map[string]any{"no-perf": 1}}
		}
		return []string{
			line(t, Event{TNS: 0, Kind: KindBegin, Name: "BAD", Span: 1, Trace: trace,
				Fields: map[string]any{"partition": partition}}),
			line(t, Event{TNS: 10, Kind: KindPoint, Name: "tally", Span: 1, Trace: trace, Fields: tally}),
			line(t, Event{TNS: 100, Kind: KindEnd, Name: "BAD", Span: 1, Trace: trace,
				DurNS: 100, Fields: map[string]any{"kept": kept}}),
		}
	}
	la := mkTrace("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa1", 1, 7)
	lb := mkTrace("bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb2", 2, 3)

	// Interleave line by line — stricter than concatenating whole files.
	var mixed strings.Builder
	for i := range la {
		mixed.WriteString(la[i])
		mixed.WriteString(lb[i])
	}
	rep, err := Replay(strings.NewReader(mixed.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 6 {
		t.Fatalf("events = %d, want 6", rep.Events)
	}
	// Each end event found its own begin's partition field: partition 1
	// kept 7 designs, partition 2 kept 3.
	if len(rep.Partitions) != 2 || rep.Partitions[1] != 7 || rep.Partitions[2] != 3 {
		t.Fatalf("partitions %v, want map[1:7 2:3]", rep.Partitions)
	}
	if rep.Trials != 2 || rep.Feasible != 1 {
		t.Fatalf("trials=%d feasible=%d, want 2/1", rep.Trials, rep.Feasible)
	}
	if rep.Reasons["no-perf"] != 1 {
		t.Fatalf("reasons %v, want no-perf:1", rep.Reasons)
	}
	st := rep.Stages["BAD"]
	if st.Count != 2 || st.TotalNS != 200 {
		t.Fatalf("BAD stage %+v, want count 2 total 200ns", st)
	}
}

func line(t *testing.T, ev Event) string {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}
