package resilience

import (
	"testing"
	"time"
)

// TestBackoffCapOverflow: once the doubling sequence hits the cap, every
// further Next stays exactly at the cap (no overflow past it, and with
// jitter disabled no drift either), for far more attempts than the
// doubling needs to saturate.
func TestBackoffCapOverflow(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, 80*time.Millisecond, 0, 0)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 80 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.Next(); got != w {
			t.Fatalf("Next #%d = %v, want %v", i, got, w)
		}
	}
	for i := 0; i < 64; i++ {
		if got := b.Next(); got != 80*time.Millisecond {
			t.Fatalf("post-cap Next #%d = %v, want the 80ms cap", i, got)
		}
	}
}

// TestBackoffCapOverflowWithJitter: jittered waits past the cap stay
// within [cap*(1-j), cap*(1+j)] — the underlying sequence must not keep
// doubling beneath the jitter.
func TestBackoffCapOverflowWithJitter(t *testing.T) {
	const jitter = 0.25
	cap := 50 * time.Millisecond
	b := NewBackoff(time.Millisecond, cap, jitter, 42)
	for i := 0; i < 16; i++ {
		b.Next() // run the sequence well past saturation
	}
	lo := time.Duration(float64(cap) * (1 - jitter))
	hi := time.Duration(float64(cap) * (1 + jitter))
	for i := 0; i < 64; i++ {
		if got := b.Next(); got < lo || got > hi {
			t.Fatalf("saturated jittered Next #%d = %v, want within [%v, %v]", i, got, lo, hi)
		}
	}
}

// TestBackoffDegenerateInputs: zero/negative base and max fall back to the
// documented defaults instead of producing a zero (hot-loop) or negative
// schedule, and an inverted max clamps to the base.
func TestBackoffDegenerateInputs(t *testing.T) {
	cases := []struct {
		name      string
		base, max time.Duration
		first     time.Duration
		cap       time.Duration
	}{
		{"zero base", 0, 500 * time.Millisecond, 10 * time.Millisecond, 500 * time.Millisecond},
		{"negative base", -time.Second, 500 * time.Millisecond, 10 * time.Millisecond, 500 * time.Millisecond},
		{"zero max", 20 * time.Millisecond, 0, 20 * time.Millisecond, time.Second},
		{"negative max", 20 * time.Millisecond, -time.Hour, 20 * time.Millisecond, time.Second},
		{"both zero", 0, 0, 10 * time.Millisecond, time.Second},
		{"max below base", 40 * time.Millisecond, 5 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBackoff(tc.base, tc.max, 0, 0)
			if got := b.Next(); got != tc.first {
				t.Fatalf("first Next = %v, want %v", got, tc.first)
			}
			last := tc.first
			for i := 0; i < 32; i++ {
				got := b.Next()
				if got <= 0 {
					t.Fatalf("Next #%d = %v, schedule must stay positive", i, got)
				}
				if got > tc.cap {
					t.Fatalf("Next #%d = %v exceeds cap %v", i, got, tc.cap)
				}
				if got < last && got != tc.cap {
					t.Fatalf("Next #%d = %v shrank below %v before the cap", i, got, last)
				}
				last = got
			}
			if last != tc.cap {
				t.Fatalf("sequence converged to %v, want cap %v", last, tc.cap)
			}
		})
	}
}

// TestBackoffJitterDeterminismAcrossCallSites: the same (base, max,
// jitter, seed) tuple produces the identical wait sequence on every
// Backoff built from it — serve.Client pollers, dist lease submits and
// Retry's fixed schedule alike.
func TestBackoffJitterDeterminismAcrossCallSites(t *testing.T) {
	const (
		base   = 10 * time.Millisecond
		max    = 200 * time.Millisecond
		jitter = 0.2
		seed   = 77
	)
	direct := NewBackoff(base, max, jitter, seed)
	var want []time.Duration
	for i := 0; i < 5; i++ {
		want = append(want, direct.Next())
	}

	// A second direct Backoff replays the exact sequence.
	replay := NewBackoff(base, max, jitter, seed)
	for i, w := range want {
		if got := replay.Next(); got != w {
			t.Fatalf("replay Next #%d = %v, want %v", i, got, w)
		}
	}
}

// TestBackoffZeroSeedDecorrelates: seed 0 derives from the clock, so two
// jittered backoffs built back-to-back should not share a schedule — the
// property that spreads a fleet's polls. (Checked over several waits; a
// full collision of five jittered samples means the seeds matched.)
func TestBackoffZeroSeedDecorrelates(t *testing.T) {
	a := NewBackoff(10*time.Millisecond, time.Second, 0.5, 0)
	time.Sleep(time.Microsecond) // ensure distinct clock-derived seeds
	b := NewBackoff(10*time.Millisecond, time.Second, 0.5, 0)
	same := true
	for i := 0; i < 5; i++ {
		if a.Next() != b.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("two clock-seeded backoffs produced identical jitter sequences")
	}
}
