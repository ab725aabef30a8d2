package resilience

import (
	"fmt"
	"math/rand"
	"time"
)

// Backoff produces a capped exponential wait sequence with optional
// deterministic jitter: base, 2*base, 4*base, ... clamped at max, each
// scaled by a uniform factor in [1-jitter, 1+jitter]. It is the waiting
// schedule behind Retry, exported so pollers (serve.Client.Await) share
// the same curve — a fleet of clients seeded differently spreads its
// polls instead of self-synchronizing into thundering herds.
//
// Not safe for concurrent use; give each goroutine its own Backoff.
type Backoff struct {
	next   time.Duration
	max    time.Duration
	jitter float64
	rng    *rand.Rand
}

// NewBackoff builds a Backoff starting at base and capping at max. A
// positive jitter spreads each wait by ±jitter; seed 0 derives one from the
// clock, any other value makes the jitter sequence deterministic (tests,
// and per-client decorrelation from a stable identity like a run id).
func NewBackoff(base, max time.Duration, jitter float64, seed int64) *Backoff {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if max <= 0 {
		max = time.Second
	}
	if max < base {
		max = base
	}
	b := &Backoff{next: base, max: max}
	if jitter > 0 {
		if seed == 0 {
			seed = time.Now().UnixNano()
		}
		b.jitter = jitter
		b.rng = rand.New(rand.NewSource(seed))
	}
	return b
}

// Next returns the next wait in the sequence and advances it.
func (b *Backoff) Next() time.Duration {
	wait := b.next
	if b.rng != nil {
		f := 1 + b.jitter*(2*b.rng.Float64()-1)
		wait = time.Duration(float64(wait) * f)
	}
	if b.next < b.max {
		b.next *= 2
		if b.next > b.max {
			b.next = b.max
		}
	}
	return wait
}

// retryAttempts is how many times Retry calls its function at most.
const retryAttempts = 3

// retryBackoff is Retry's wait schedule: 5ms, then 10ms, each within ±20%,
// seeded so a run's waits repeat.
func retryBackoff() *Backoff { return NewBackoff(5*time.Millisecond, time.Second, 0.2, 1) }

// Retry calls fn until it succeeds, at most three times, waiting between
// attempts on retryBackoff's schedule. When every attempt fails it returns
// the last attempt's error wrapped with the attempt count.
func Retry(fn func() error) error {
	backoff := retryBackoff()
	for attempt := 1; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		if attempt == retryAttempts {
			return fmt.Errorf("retry exhausted after %d attempt(s): %w", attempt, err)
		}
		time.Sleep(backoff.Next())
	}
}
