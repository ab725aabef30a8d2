package obs

import (
	"slices"
	"sync"
	"sync/atomic"
)

// RingSink is a bounded in-memory trace sink built for serving live trace
// streams: it keeps the most recent events in a bounded replay ring and
// fans incoming events out to any number of subscribers. Every path is
// non-blocking for the emitter — when the ring is full the oldest event is
// overwritten, and when a subscriber's buffer is full its oldest pending
// event is dropped (and counted) — so a slow or stalled consumer can never
// stall the search hot path feeding the sink.
//
// The intended lifecycle is one RingSink per run: the run's Tracer emits
// into it, HTTP streaming handlers Subscribe (receiving a replay of what
// they missed plus the live feed), and Close at run end terminates every
// subscriber's channel.
type RingSink struct {
	mu sync.Mutex
	// buf holds the retained events. It grows by append up to capacity;
	// once full, start is the oldest event and the next one overwrites it.
	buf         []Event
	capacity    int
	start       int
	overwritten int64
	subs        map[*RingSub]struct{}
	closed      bool
}

// defaultRingCapacity bounds a run's replay buffer when the caller passes
// no explicit capacity; at ~200 bytes per event this is under 1 MiB.
const defaultRingCapacity = 4096

// NewRingSink returns a RingSink retaining up to capacity events for
// replay; capacity <= 0 selects the default (4096). The ring takes memory
// for the events it holds, not for its capacity.
func NewRingSink(capacity int) *RingSink {
	if capacity <= 0 {
		capacity = defaultRingCapacity
	}
	return &RingSink{capacity: capacity, subs: make(map[*RingSub]struct{})}
}

// Emit appends the event to the replay ring (overwriting the oldest event
// when full) and delivers it to every subscriber without ever blocking.
// Events emitted after Close are dropped.
func (r *RingSink) Emit(ev Event) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.start] = ev
		r.start = (r.start + 1) % len(r.buf)
		r.overwritten++
	}
	for sub := range r.subs {
		sub.push(ev)
	}
	r.mu.Unlock()
}

// Snapshot returns the retained events, oldest first.
func (r *RingSink) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Concat(r.buf[r.start:], r.buf[:r.start])
}

// Len returns the number of retained events; Cap the ring capacity.
func (r *RingSink) Len() int { r.mu.Lock(); defer r.mu.Unlock(); return len(r.buf) }

// Cap returns the replay capacity.
func (r *RingSink) Cap() int { return r.capacity }

// Overwritten returns how many events have been pushed out of the replay
// ring by newer ones (a measure of how much history a late subscriber
// missed).
func (r *RingSink) Overwritten() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overwritten
}

// Closed reports whether Close has been called.
func (r *RingSink) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Subscribe registers a live consumer. It returns the replay of currently
// retained events (oldest first) and a subscription whose channel carries
// every event emitted from this instant on — the two never overlap and
// never miss an event in between, because registration and the replay copy
// happen under the same lock Emit takes. buf is the subscription's channel
// capacity (<= 0 selects 256); when the consumer lags more than buf events
// behind, the oldest pending events are dropped and counted on the
// subscription. Subscribing to a closed sink returns the final replay and
// an already-terminated subscription.
func (r *RingSink) Subscribe(buf int) ([]Event, *RingSub) {
	if buf <= 0 {
		buf = 256
	}
	sub := &RingSub{r: r, ch: make(chan Event, buf)}
	r.mu.Lock()
	defer r.mu.Unlock()
	replay := slices.Concat(r.buf[r.start:], r.buf[:r.start])
	if r.closed {
		sub.closed = true
		close(sub.ch)
		return replay, sub
	}
	r.subs[sub] = struct{}{}
	return replay, sub
}

// Close terminates the sink: subscriber channels are closed (after their
// pending events drain), later Emits are dropped, and the replay stays
// readable via Snapshot. Close is idempotent.
func (r *RingSink) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for sub := range r.subs {
		sub.closed = true
		close(sub.ch)
	}
	r.subs = make(map[*RingSub]struct{})
}

// RingSub is one live subscription to a RingSink.
type RingSub struct {
	r       *RingSink
	ch      chan Event
	dropped atomic.Int64
	closed  bool // guarded by r.mu
}

// Events returns the live event channel. It is closed when the sink closes
// or the subscription is Closed; pending events are still delivered first.
func (s *RingSub) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscription lost to backpressure.
// The accounting is exact: events delivered on the channel plus Dropped
// equals the events emitted while the subscription was live.
func (s *RingSub) Dropped() int64 { return s.dropped.Load() }

// Close detaches the subscription and closes its channel. Safe to call
// concurrently with Emit and after the sink itself closed.
func (s *RingSub) Close() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(s.r.subs, s)
	close(s.ch)
}

// push delivers ev without blocking. Called with r.mu held, which makes it
// the only sender on s.ch: evicting one pending event always frees a slot,
// so the event order seen by the consumer is the emit order with gaps, and
// every gap is counted.
func (s *RingSub) push(ev Event) {
	select {
	case s.ch <- ev:
		return
	default:
	}
	// Buffer full: evict the oldest pending event to make room. The
	// consumer may race us and drain a slot first — then the eviction
	// no-ops and the send below still succeeds.
	select {
	case <-s.ch:
		s.dropped.Add(1)
	default:
	}
	select {
	case s.ch <- ev:
	default:
		// Only reachable with a zero-capacity channel, which Subscribe
		// never creates; counted for safety rather than silently lost.
		s.dropped.Add(1)
	}
}
