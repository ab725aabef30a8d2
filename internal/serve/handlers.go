package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"chop/internal/obs"
)

// apiError is the JSON error envelope every non-2xx API response carries.
type apiError struct {
	Error string `json:"error"`
	// Reason is a short machine-readable rejection class ("queue-full",
	// "draining", "unknown-kind", "bad-spec", "bad-checkpoint",
	// "not-found", "bad-key", "rate-limited", "over-quota").
	Reason string `json:"reason,omitempty"`
	// RequestID echoes the X-Request-Id header so error reports quote one
	// token that finds the matching server log line and trace span.
	RequestID string `json:"requestId,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // nothing useful to do with a write error mid-response
}

func writeError(w http.ResponseWriter, r *http.Request, status int, reason string, err error) {
	writeJSON(w, status, apiError{
		Error:     err.Error(),
		Reason:    reason,
		RequestID: RequestIDFrom(r.Context()),
	})
}

// setRetryAfter advertises a retry hint on a backpressure rejection: the
// duration the admission layer computed when it supplied one (rounded up
// to whole seconds, as the header requires), else the fallback. Must be
// called before the status line is written.
func setRetryAfter(w http.ResponseWriter, err error, fallback time.Duration) {
	after := fallback
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.RetryAfter > 0 {
		after = ra.RetryAfter
	}
	secs := int(math.Ceil(after.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// apiKeyFrom extracts the submitting tenant's credential: X-API-Key, or
// an Authorization: Bearer token. Empty when the request carries neither.
func apiKeyFrom(r *http.Request) string {
	if key := r.Header.Get("X-API-Key"); key != "" {
		return key
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if token, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(token)
		}
	}
	return ""
}

// submitRequest is the POST /api/v1/runs body.
type submitRequest struct {
	// Kind selects the job: "eval", "synth", "exp1", "exp2".
	Kind string `json:"kind"`
	// Spec is the partitioning problem for eval/synth — the same JSON
	// document the CLI's -f flag reads.
	Spec json.RawMessage `json:"spec,omitempty"`
	// TimeoutSec bounds the run's wall clock once it starts (0: server
	// default; negative: explicitly unbounded). A run that exhausts its
	// deadline is marked failed with a timeout reason.
	TimeoutSec float64 `json:"timeoutSec,omitempty"`
	// Checkpoint names a search checkpoint: a plain relative path resolved
	// inside the server's configured checkpoint directory (-checkpoint-dir).
	// Resubmitting with the same name resumes an interrupted search.
	// Absolute or traversing names — or any name when the server has no
	// checkpoint directory — are rejected with 400 "bad-checkpoint".
	Checkpoint string `json:"checkpoint,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	// Bound the body: partitioning specs are small.
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, "bad-request", fmt.Errorf("decode body: %w", err))
		return
	}
	if s.reg.Draining() {
		writeError(w, r, http.StatusServiceUnavailable, "draining", ErrDraining)
		return
	}
	opts := SubmitOptions{Checkpoint: req.Checkpoint, APIKey: apiKeyFrom(r)}
	// The middleware parsed (or minted) the request's trace context; the
	// run adopts the trace ID and hangs its root span under this request's
	// span, so a stitched trace reads caller → HTTP submit → job run.
	if tc, ok := obs.TraceContextFrom(r.Context()); ok {
		opts.Trace = tc
	}
	switch {
	case req.TimeoutSec > 0:
		opts.Timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	case req.TimeoutSec < 0:
		opts.Timeout = -1 // explicitly unbounded
	}
	run, err := s.reg.SubmitWith(req.Kind, req.Spec, opts)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadKey):
			writeError(w, r, http.StatusUnauthorized, "bad-key", err)
		case errors.Is(err, ErrRateLimited):
			setRetryAfter(w, err, time.Second)
			writeError(w, r, http.StatusTooManyRequests, "rate-limited", err)
		case errors.Is(err, ErrOverQuota):
			setRetryAfter(w, err, time.Second)
			writeError(w, r, http.StatusTooManyRequests, "over-quota", err)
		case errors.Is(err, ErrQueueFull):
			setRetryAfter(w, err, time.Second)
			writeError(w, r, http.StatusServiceUnavailable, "queue-full", err)
		case errors.Is(err, ErrDraining):
			writeError(w, r, http.StatusServiceUnavailable, "draining", err)
		case errors.Is(err, ErrUnknownKind):
			writeError(w, r, http.StatusBadRequest, "unknown-kind", err)
		case errors.Is(err, ErrBadCheckpoint):
			writeError(w, r, http.StatusBadRequest, "bad-checkpoint", err)
		default:
			writeError(w, r, http.StatusBadRequest, "bad-spec", err)
		}
		return
	}
	w.Header().Set("Location", "/api/v1/runs/"+run.ID())
	writeJSON(w, http.StatusAccepted, run.accepted)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.reg.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Status(true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := s.reg.Cancel(id)
	if err != nil {
		writeError(w, r, http.StatusNotFound, "not-found", err)
		return
	}
	run, _ := s.reg.Get(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"cancelled": ok, // false: the run had already finished
		"run":       run.Status(false),
	})
}

// handleMetrics exposes the server-wide registry in Prometheus text
// format: pipeline counters merged from finished runs, the HTTP middleware
// families, and point-in-time supervision gauges refreshed per scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.SetGauge("serve.queue_depth", float64(s.reg.QueueLen()))
	for state, n := range s.reg.CountByState() {
		s.metrics.SetGaugeLabels("serve_runs", map[string]string{"state": string(state)}, float64(n))
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteProm(w)
}

// handleHealthz answers 200 while the process serves requests at all.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports 503 once draining starts, so load balancers stop
// routing while in-flight requests complete.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.reg.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleEvents streams a run's trace as Server-Sent Events: first the
// replay of what the bounded ring retained, then live events as the search
// emits them. Each trace record is one `event: trace` message whose data
// is the JSONL event object; the stream ends with one `event: done`
// carrying the final run status after the run finishes (or immediately,
// for already-terminal runs). Slow consumers never stall the run — the
// ring drops their oldest pending events and the drop total is visible in
// the run status as traceDropped.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	sse, ok := startSSE(w, r)
	if !ok {
		return
	}
	replay, sub := run.Ring().Subscribe(0)
	defer sub.Close()

	for _, ev := range replay {
		if !sse.send("trace", ev) {
			return
		}
	}
	sse.flush()
	for {
		select {
		case <-r.Context().Done():
			return // client went away or server is shutting down
		case ev, open := <-sub.Events():
			if !open {
				// Run finished (the registry closes the ring): emit the
				// final status and end the stream.
				sse.send("done", run.Status(false))
				sse.flush()
				return
			}
			if !sse.send("trace", ev) {
				return
			}
			// Greedily drain whatever is already pending before paying
			// the flush, so hot trace bursts batch.
			for n := len(sub.Events()); n > 0; n-- {
				ev, open := <-sub.Events()
				if !open {
					break
				}
				if !sse.send("trace", ev) {
					return
				}
			}
			sse.flush()
		}
	}
}

// lookupRun resolves the request's {id} to its run, answering 404 when
// there is none.
func (s *Server) lookupRun(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, r, http.StatusNotFound, "not-found",
			fmt.Errorf("run %q not found", r.PathValue("id")))
	}
	return run, ok
}

// sseStream writes Server-Sent Events: numbered messages whose data is one
// JSON value. Each message is built in buf, reused across messages, so a
// message allocates nothing beyond its JSON encoding.
type sseStream struct {
	w       http.ResponseWriter
	flusher http.Flusher
	seq     int
	buf     []byte
}

// startSSE sends the event-stream headers, or answers 500 when w cannot
// stream.
func startSSE(w http.ResponseWriter, r *http.Request) (sseStream, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, "no-stream",
			errors.New("response writer does not support streaming"))
		return sseStream{}, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	return sseStream{w: w, flusher: flusher}, true
}

// send writes one message, unflushed, and reports whether the client can
// still be written to.
func (s *sseStream) send(event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	s.seq++
	b := append(s.buf[:0], "event: "...)
	b = append(b, event...)
	b = append(b, "\nid: "...)
	b = strconv.AppendInt(b, int64(s.seq), 10)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	b = append(b, "\n\n"...)
	s.buf = b
	_, err = s.w.Write(b)
	return err == nil
}

// flush pushes the sent messages to the client.
func (s *sseStream) flush() { s.flusher.Flush() }
