package resilience

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	err := Retry(func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestRetryExhaustion(t *testing.T) {
	calls := 0
	boom := errors.New("still down")
	start := time.Now()
	err := Retry(func() error { calls++; return boom })
	elapsed := time.Since(start)
	if calls != 3 || !errors.Is(err, boom) {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	if !strings.Contains(err.Error(), "retry exhausted after 3 attempt(s)") {
		t.Errorf("err = %q, want the attempt count", err)
	}
	// Two waits, of at least 80% of 5ms and 10ms.
	if elapsed < 12*time.Millisecond {
		t.Errorf("three attempts took %v, want the two backoff waits", elapsed)
	}
}

// TestRetryDeterministicJitter pins Retry's wait schedule: its seeded
// backoff draws the same two waits on every run.
func TestRetryDeterministicJitter(t *testing.T) {
	want := []time.Duration{5209320, 11762036}
	for run := 0; run < 2; run++ {
		b := retryBackoff()
		for i, w := range want {
			if got := b.Next(); got != w {
				t.Fatalf("run %d wait %d = %v, want %v", run, i, got, w)
			}
		}
	}
}
