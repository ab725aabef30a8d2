package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// seqEvent builds an event carrying a sequence number in Span.
func seqEvent(i int64) Event { return Event{Kind: KindPoint, Name: "e", Span: i} }

func TestRingReplayOverwrite(t *testing.T) {
	r := NewRingSink(4)
	for i := int64(1); i <= 6; i++ {
		r.Emit(seqEvent(i))
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("Len=%d Cap=%d", r.Len(), r.Cap())
	}
	if got := r.Overwritten(); got != 2 {
		t.Fatalf("Overwritten = %d, want 2", got)
	}
	snap := r.Snapshot()
	for i, ev := range snap {
		if want := int64(i + 3); ev.Span != want {
			t.Fatalf("snapshot[%d] = seq %d, want %d (snapshot %v)", i, ev.Span, want, snap)
		}
	}
}

func TestRingSubscribeReplayThenLive(t *testing.T) {
	r := NewRingSink(8)
	for i := int64(1); i <= 3; i++ {
		r.Emit(seqEvent(i))
	}
	replay, sub := r.Subscribe(16)
	if len(replay) != 3 {
		t.Fatalf("replay %d events, want 3", len(replay))
	}
	for i := int64(4); i <= 6; i++ {
		r.Emit(seqEvent(i))
	}
	r.Close()
	var all []int64
	for _, ev := range replay {
		all = append(all, ev.Span)
	}
	for ev := range sub.Events() { // terminates: Close closed the channel
		all = append(all, ev.Span)
	}
	if len(all) != 6 {
		t.Fatalf("got %d events, want 6 (%v)", len(all), all)
	}
	for i, s := range all {
		if s != int64(i+1) {
			t.Fatalf("order violated at %d: %v", i, all)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped = %d on an unloaded subscription", sub.Dropped())
	}
}

// TestRingSlowSubscriberExactDrops checks drop-oldest accounting with a
// consumer that never reads until the end: delivered + dropped must equal
// everything emitted while subscribed, and what is delivered must be the
// newest suffix in order.
func TestRingSlowSubscriberExactDrops(t *testing.T) {
	r := NewRingSink(4)
	_, sub := r.Subscribe(8)
	const total = 100
	for i := int64(1); i <= total; i++ {
		r.Emit(seqEvent(i))
	}
	r.Close()
	var got []int64
	for ev := range sub.Events() {
		got = append(got, ev.Span)
	}
	if int64(len(got))+sub.Dropped() != total {
		t.Fatalf("delivered %d + dropped %d != emitted %d", len(got), sub.Dropped(), total)
	}
	if len(got) != 8 {
		t.Fatalf("buffer cap 8 should retain 8 events, got %d", len(got))
	}
	for i, s := range got {
		if want := total - 8 + int64(i) + 1; s != want {
			t.Fatalf("kept events not the newest suffix: %v", got)
		}
	}
}

// TestRingConcurrent is the property test: many emitters, several
// subscribers joining at random times, one closing early — under -race.
// Invariants: no deadlock, per-subscription delivered+dropped accounting
// never exceeds what was emitted, and each emitter's events arrive in its
// own emit order (per-emitter sequence monotonicity survives the drops).
func TestRingConcurrent(t *testing.T) {
	const (
		emitters  = 8
		perEmit   = 500
		consumers = 4
	)
	r := NewRingSink(64)
	var wg sync.WaitGroup

	var consumed [consumers]atomic.Int64
	subs := make([]*RingSub, consumers)
	for c := 0; c < consumers; c++ {
		_, subs[c] = r.Subscribe(32)
		wg.Add(1)
		go func(c int, sub *RingSub) {
			defer wg.Done()
			last := make(map[int64]int64) // emitter id -> last seq seen
			for ev := range sub.Events() {
				em, seq := ev.Span>>32, ev.Span&0xffffffff
				if seq <= last[em] {
					t.Errorf("consumer %d: emitter %d went backwards: %d after %d", c, em, seq, last[em])
					return
				}
				last[em] = seq
				consumed[c].Add(1)
			}
		}(c, subs[c])
	}

	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 1; i <= perEmit; i++ {
				r.Emit(seqEvent(int64(e)<<32 | int64(i)))
			}
		}(e)
	}
	// One consumer detaches mid-stream; Emit must keep flowing.
	subs[0].Close()

	// A late subscriber must still get a coherent replay + live feed.
	replay, late := r.Subscribe(16)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range late.Events() {
		}
	}()
	if len(replay) > r.Cap() {
		t.Errorf("replay longer than capacity: %d", len(replay))
	}

	// Wait for emitters, then close: consumers drain and exit.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Emitters finish independently of consumers (Emit never blocks), so
	// closing after their sends is safe even though we share the WaitGroup:
	// consumers only exit once Close runs.
	const totalEmitted = emitters * perEmit
	for r.Overwritten()+int64(r.Len()) < int64(totalEmitted) {
		// Spin until every event has transited the ring (cheap: bounded by
		// emit speed, no sleep needed for correctness, just progress).
	}
	r.Close()
	<-done

	for c := 1; c < consumers; c++ {
		got := consumed[c].Load() + subs[c].Dropped()
		if got != int64(totalEmitted) {
			t.Errorf("consumer %d: delivered %d + dropped %d = %d, want %d",
				c, consumed[c].Load(), subs[c].Dropped(), got, totalEmitted)
		}
	}
}

func TestRingCloseSemantics(t *testing.T) {
	r := NewRingSink(4)
	r.Emit(seqEvent(1))
	r.Close()
	r.Close() // idempotent
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	r.Emit(seqEvent(2)) // dropped silently
	if r.Len() != 1 {
		t.Fatalf("post-close emit retained: Len=%d", r.Len())
	}
	replay, sub := r.Subscribe(4)
	if len(replay) != 1 || replay[0].Span != 1 {
		t.Fatalf("post-close replay = %v", replay)
	}
	if _, open := <-sub.Events(); open {
		t.Fatal("post-close subscription channel not terminated")
	}
	sub.Close() // safe on an already-terminated subscription
}

func TestRingDefaultCapacity(t *testing.T) {
	if got := NewRingSink(0).Cap(); got != defaultRingCapacity {
		t.Fatalf("default capacity = %d", got)
	}
	if got := NewRingSink(-5).Cap(); got != defaultRingCapacity {
		t.Fatalf("negative capacity = %d", got)
	}
}

// TestRingTakesMemoryByUse: a ring of the default 4,096-event capacity that
// is fed a run's worth of events allocates for those events, not for its
// capacity.
func TestRingTakesMemoryByUse(t *testing.T) {
	const events = 24
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRingSink(defaultRingCapacity)
	for i := int64(1); i <= events; i++ {
		r.Emit(seqEvent(i))
	}
	runtime.ReadMemStats(&after)
	full := uint64(defaultRingCapacity) * uint64(unsafe.Sizeof(Event{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > full/16 {
		t.Fatalf("a ring holding %d events allocated %d bytes; its whole capacity is %d", events, got, full)
	}
	if r.Len() != events {
		t.Fatalf("Len = %d, want %d", r.Len(), events)
	}
}
