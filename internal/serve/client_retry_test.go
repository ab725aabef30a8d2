package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"chop/internal/spec"
)

// backpressureServer rejects the first n submissions with the given status
// and Retry-After header, then accepts.
func backpressureServer(t *testing.T, n int, status int, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a := attempts.Add(1)
		if a <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(apiError{Error: "try later", Reason: "rate-limited"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(RunStatus{ID: "r-1", Kind: "eval", State: StateQueued})
	}))
	t.Cleanup(ts.Close)
	return ts, &attempts
}

// TestSubmitRetryHonorsRetryAfter: 429s carrying Retry-After are retried
// after (at least) the hinted wait, and the eventual acceptance is
// returned. The hint is fractional to keep the test fast; real servers
// send whole seconds, which the same parser handles.
func TestSubmitRetryHonorsRetryAfter(t *testing.T) {
	ts, attempts := backpressureServer(t, 2, http.StatusTooManyRequests, "0.05")
	c := &Client{Base: ts.URL}
	start := time.Now()
	st, err := c.SubmitRetry(context.Background(), SubmitSpec{Kind: "eval"}, 10*time.Second)
	if err != nil {
		t.Fatalf("SubmitRetry: %v", err)
	}
	if st.ID != "r-1" {
		t.Fatalf("unexpected status: %+v", st)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("retries ignored the Retry-After hint: done in %v, want >= ~100ms", elapsed)
	}
}

// TestSubmitRetryBacksOffWithoutHint: a 503 without Retry-After still
// retries, on the client's own backoff schedule.
func TestSubmitRetryBacksOffWithoutHint(t *testing.T) {
	ts, attempts := backpressureServer(t, 1, http.StatusServiceUnavailable, "")
	c := &Client{Base: ts.URL}
	st, err := c.SubmitRetry(context.Background(), SubmitSpec{Kind: "eval"}, 10*time.Second)
	if err != nil {
		t.Fatalf("SubmitRetry: %v", err)
	}
	if st.ID != "r-1" || attempts.Load() != 2 {
		t.Fatalf("want acceptance on attempt 2, got %d attempts, status %+v", attempts.Load(), st)
	}
}

// TestSubmitRetryFailsFastOnNonBackpressure: a 400 is not backpressure;
// retrying it would loop on the same rejection.
func TestSubmitRetryFailsFastOnNonBackpressure(t *testing.T) {
	ts, attempts := backpressureServer(t, 100, http.StatusBadRequest, "")
	c := &Client{Base: ts.URL}
	_, err := c.SubmitRetry(context.Background(), SubmitSpec{Kind: "eval"}, 10*time.Second)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("want APIError 400, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("400 was retried: %d attempts", got)
	}
}

// TestSubmitRetryBudgetExhausted: persistent backpressure eventually
// surfaces the last rejection wrapped in a budget error instead of
// spinning forever.
func TestSubmitRetryBudgetExhausted(t *testing.T) {
	ts, _ := backpressureServer(t, 1000, http.StatusTooManyRequests, "1")
	c := &Client{Base: ts.URL}
	start := time.Now()
	_, err := c.SubmitRetry(context.Background(), SubmitSpec{Kind: "eval"}, 300*time.Millisecond)
	if err == nil {
		t.Fatalf("want budget error, got nil")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("budget error should wrap the last rejection, got %v", err)
	}
	// The 1s hint exceeds the remaining 300ms budget, so the client must
	// give up without sleeping the full hint.
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Fatalf("client overslept its budget: %v", elapsed)
	}
}

// TestSubmitRetryZeroBudgetIsPlainSubmit: budget <= 0 makes exactly one
// attempt.
func TestSubmitRetryZeroBudgetIsPlainSubmit(t *testing.T) {
	ts, attempts := backpressureServer(t, 1000, http.StatusTooManyRequests, "0.01")
	c := &Client{Base: ts.URL}
	_, err := c.SubmitRetry(context.Background(), SubmitSpec{Kind: "eval"}, 0)
	if err == nil || attempts.Load() != 1 {
		t.Fatalf("want single failed attempt, got err=%v attempts=%d", err, attempts.Load())
	}
}

// TestClientRejectionBuckets drives a real server's throttled tenant
// faster than its rate: the burst token is accepted, and every overflow
// submit surfaces through Client.Submit as a typed 429 whose reason is the
// server's "rate-limited" and whose Retry-After hint is set.
func TestClientRejectionBuckets(t *testing.T) {
	_, ts := newTestServer(t, Options{Tenants: []TenantConfig{
		{Name: "slow", Key: "slow-key", RatePerSec: 1, Burst: 1},
	}})
	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{Base: ts.URL, APIKey: "slow-key"}
	accepted, rejected := 0, map[string]int{}
	for i := 0; i < 10; i++ {
		_, err := c.Submit(context.Background(), SubmitSpec{Kind: "eval", Spec: raw})
		var ae *APIError
		switch {
		case err == nil:
			accepted++
		case errors.As(err, &ae):
			rejected[ae.Reason]++
			if ae.Reason == "rate-limited" && (ae.Status != http.StatusTooManyRequests || ae.RetryAfter <= 0) {
				t.Errorf("submit %d: rate-limited rejection = %+v, want 429 with Retry-After", i, ae)
			}
		default:
			t.Fatalf("submit %d: untyped error %v", i, err)
		}
	}
	if accepted == 0 {
		t.Error("burst token not accepted")
	}
	if rejected["rate-limited"] == 0 || len(rejected) != 1 {
		t.Errorf("want only rate-limited rejections, got %v (accepted %d)", rejected, accepted)
	}
}
