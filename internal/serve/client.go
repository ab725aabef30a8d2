package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"time"

	"chop/internal/obs"
	"chop/internal/resilience"
)

// Client is a minimal API client for the serve plane that propagates W3C
// trace context: every request carries a traceparent header when the
// context.Context holds one (obs.WithTraceContext), so the server's HTTP
// span and the job run it supervises become children of the caller's span
// in a stitched trace.
type Client struct {
	// Base is the server's base URL, e.g. "http://127.0.0.1:8080".
	Base string
	// APIKey authenticates the client against an admission-controlled
	// server (sent as X-API-Key). Empty sends no credential — fine for
	// servers running without -api-keys.
	APIKey string
	// HTTP is the transport (nil: http.DefaultClient).
	HTTP *http.Client
}

// APIError is the typed form of a non-2xx response: the HTTP status, the
// server's machine-readable rejection reason ("rate-limited", "over-quota",
// "bad-key", "queue-full", ...), and the Retry-After hint when the server
// sent one. Recover it from a Client error with errors.As.
type APIError struct {
	Status     int
	Reason     string
	Message    string
	RequestID  string
	RetryAfter time.Duration // 0: no Retry-After header
	Method     string
	Path       string
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("serve: %s %s: HTTP %d", e.Method, e.Path, e.Status)
	}
	suffix := ""
	if e.RequestID != "" {
		suffix = ", request " + e.RequestID
	}
	return fmt.Sprintf("serve: %s %s: %s (%s%s)", e.Method, e.Path, e.Message, e.Reason, suffix)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one JSON request. A trace context on ctx is injected as
// traceparent; non-2xx responses decode the apiError envelope into a
// returned *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		obs.InjectTraceparent(req.Header, tc)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		ae := &APIError{Status: resp.StatusCode, Method: method, Path: path}
		var envelope apiError
		if json.Unmarshal(data, &envelope) == nil {
			ae.Message = envelope.Error
			ae.Reason = envelope.Reason
			ae.RequestID = envelope.RequestID
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			var sec float64
			if _, err := fmt.Sscanf(ra, "%f", &sec); err == nil && sec > 0 {
				ae.RetryAfter = time.Duration(sec * float64(time.Second))
			}
		}
		return ae
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// SubmitSpec parameterizes Client.Submit; it mirrors the POST
// /api/v1/runs body.
type SubmitSpec struct {
	Kind       string
	Spec       json.RawMessage
	TimeoutSec float64
	Checkpoint string
}

// Submit posts a run and returns its accepted status (state queued, with
// the run and trace IDs assigned).
func (c *Client) Submit(ctx context.Context, req SubmitSpec) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodPost, "/api/v1/runs", submitRequest{
		Kind:       req.Kind,
		Spec:       req.Spec,
		TimeoutSec: req.TimeoutSec,
		Checkpoint: req.Checkpoint,
	}, &st)
	return st, err
}

// SubmitRetry submits like Submit but rides out admission backpressure:
// 429 (rate-limited, over-quota) and 503 (queue-full, draining) rejections
// are retried until the submission is accepted, a non-retryable error
// occurs, ctx ends, or the budget elapses. The wait before each retry is
// the server's Retry-After hint when it sent one — the server knows when
// its token bucket refills or its queue drains — falling back to
// exponential backoff with deterministic jitter (seeded from the run kind,
// so concurrent submitters decorrelate). budget <= 0 means a single
// attempt, i.e. plain Submit.
func (c *Client) SubmitRetry(ctx context.Context, req SubmitSpec, budget time.Duration) (RunStatus, error) {
	st, err := c.Submit(ctx, req)
	if budget <= 0 {
		return st, err
	}
	deadline := time.Now().Add(budget)
	backoff := resilience.NewBackoff(200*time.Millisecond, 5*time.Second, 0.2,
		pollSeed(c.Base+"/"+req.Kind))
	for {
		if !retryableSubmit(err) {
			return st, err
		}
		wait := backoff.Next()
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > 0 {
			wait = ae.RetryAfter
		}
		if time.Now().Add(wait).After(deadline) {
			return st, fmt.Errorf("serve: submit retry budget exhausted: %w", err)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(wait):
		}
		st, err = c.Submit(ctx, req)
	}
}

// retryableSubmit reports whether a submit rejection is backpressure worth
// waiting out: only typed 429/503 responses qualify. Transport errors and
// everything else (400 bad spec, 401 bad key, ...) fail fast — retrying
// them would just repeat the same answer.
func retryableSubmit(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable
}

// Get fetches one run's status, including its result when terminal.
func (c *Client) Get(ctx context.Context, id string) (RunStatus, error) {
	var st RunStatus
	err := c.do(ctx, http.MethodGet, "/api/v1/runs/"+id, nil, &st)
	return st, err
}

// Cancel requests cancellation of a run; cancelled is false when the run
// had already finished.
func (c *Client) Cancel(ctx context.Context, id string) (cancelled bool, err error) {
	var out struct {
		Cancelled bool `json:"cancelled"`
	}
	err = c.do(ctx, http.MethodDelete, "/api/v1/runs/"+id, nil, &out)
	return out.Cancelled, err
}

// Await polls a run until it reaches a terminal state (or ctx ends). poll
// is the initial polling delay (default 200ms); each subsequent wait backs
// off exponentially, capped at 8x, with deterministic ±20% jitter seeded
// from the run id — so many clients awaiting many runs decorrelate their
// polls instead of hammering the server in lockstep.
func (c *Client) Await(ctx context.Context, id string, poll time.Duration) (RunStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	backoff := resilience.NewBackoff(poll, 8*poll, 0.2, pollSeed(id))
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(backoff.Next()):
		}
	}
}

// pollSeed derives a stable non-zero jitter seed from a run id, so two
// clients awaiting different runs spread apart while a given client's
// schedule stays reproducible.
func pollSeed(id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	seed := int64(h.Sum64())
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Health reports whether the server answers its liveness probe.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
