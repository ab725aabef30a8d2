package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy parameterizes Retry. The zero value selects the defaults:
// 3 attempts starting at 10ms, doubling, capped at 1s, with jitter.
type RetryPolicy struct {
	// Attempts is the total number of tries (default 3). 1 disables
	// retrying: the first failure is final.
	Attempts int
	// BaseDelay is the wait before the second attempt (default 10ms);
	// each subsequent wait doubles, capped at MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter scales each wait by a uniform factor in [1-Jitter, 1+Jitter]
	// (default 0.2; 0 after explicit Attempts/BaseDelay still applies the
	// default — set a negative value to disable jitter entirely).
	Jitter float64
	// Seed, when non-zero, makes the jitter sequence deterministic —
	// chaos tests assert exact schedules. 0 uses a time-derived seed.
	Seed int64
	// Sleep overrides the waiting primitive (tests). Nil waits on a timer
	// honoring ctx cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

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

// Permanent marks an error as non-retryable: Retry returns it immediately
// without burning the remaining attempts.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err}
}

type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// Retry runs fn up to p.Attempts times, waiting between attempts with
// capped exponential backoff and jitter. It stops early when ctx is
// cancelled, when fn succeeds, or when fn returns a Permanent error or a
// context error (both mean retrying cannot help). The returned error is the
// last attempt's, wrapped with the attempt count when every try failed.
func Retry(ctx context.Context, p RetryPolicy, fn func() error) error {
	p = p.withDefaults()
	backoff := NewBackoff(p.BaseDelay, p.MaxDelay, p.Jitter, p.Seed)
	var err error
	for attempt := 1; ; attempt++ {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				if err != nil {
					return fmt.Errorf("retry canceled after %d attempt(s): %w", attempt-1, err)
				}
				return cerr
			}
		}
		err = fn()
		if err == nil {
			return nil
		}
		var perm permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if attempt >= p.Attempts {
			return fmt.Errorf("retry exhausted after %d attempt(s): %w", attempt, err)
		}
		sctx := ctx
		if sctx == nil {
			sctx = context.Background()
		}
		if serr := p.Sleep(sctx, backoff.Next()); serr != nil {
			return fmt.Errorf("retry canceled after %d attempt(s): %w", attempt, err)
		}
	}
}
