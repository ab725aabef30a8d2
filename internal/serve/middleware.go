package serve

import (
	"context"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"chop/internal/obs"
)

// The one middleware every route runs behind. It records, from one start
// time per request:
//
//	serve.http.<route>_us            latency histogram for the route
//	serve.http.request_us            latency histogram across all routes
//	serve.http.<route>.<class>       counter per status class (2xx, 4xx, ...)
//	serve.http.requests              counter across all routes
//	serve.http.in_flight             gauge of currently-executing requests
//
// into the server's metrics registry, one HTTP span into the server's trace
// sink, and one access record into its log. A stream route (SSE) holds its
// connection open for the run's lifetime, so its latency histograms record
// the time to first byte, and its full lifetime goes to
// serve.http.stream_us and serve.http.<route>.lifetime_us instead, which
// keeps minutes-long streams out of the all-routes request histogram.
//
// Cross-process trace correlation: every request gets a request id and a
// W3C trace context. A caller-supplied traceparent is adopted (the request
// becomes a child of the caller's span), otherwise a fresh trace is minted
// and head-sampled at Options.TraceSampleRate. The context rides on the
// request's context.Context, so handleSubmit parents the job run under the
// request's span; both identities are echoed back in the traceparent and
// X-Request-Id response headers.
//
// When the server records its own trace (Options.TraceSink), the request is
// emitted as one span per sampled request — retroactively, at request end,
// which is what lets "always sample on error" work: an unsampled request
// that turns into a 4xx/5xx still gets its span recorded.

// RequestIDHeader carries the per-request correlation id on responses.
const RequestIDHeader = "X-Request-Id"

const (
	httpInFlight   = "serve.http.in_flight"
	httpRequests   = "serve.http.requests"
	httpRequestsUS = "serve.http.request_us" // aggregate across routes
	httpStreamUS   = "serve.http.stream_us"  // stream lifetimes, all routes
)

type requestIDKey struct{}

// RequestIDFrom returns the request id the middleware assigned, or "" outside
// a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// responseRecorder captures the response status and the time to first
// byte. It forwards Flush so the SSE handlers behind it keep streaming.
type responseRecorder struct {
	http.ResponseWriter
	start   time.Time
	status  int
	firstNS int64 // time to the first header or byte, 0 until written
}

func (w *responseRecorder) wrote(code int) {
	if w.status == 0 {
		w.status = code
		w.firstNS = time.Since(w.start).Nanoseconds()
	}
}

func (w *responseRecorder) WriteHeader(code int) {
	w.wrote(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseRecorder) Write(b []byte) (int, error) {
	w.wrote(http.StatusOK)
	return w.ResponseWriter.Write(b)
}

func (w *responseRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route. name should be a short static label
// ("get_run", "metrics"), never a request-derived string, to keep the
// registry's cardinality bounded; every name the route writes is built
// here, once.
func (s *Server) instrument(name string, stream bool, next http.Handler) http.Handler {
	span := "http " + name
	latency := "serve.http." + name + "_us"
	lifetime := "serve.http." + name + ".lifetime_us"
	var classes [5]string // 1xx ... 5xx
	for i := range classes {
		classes[i] = "serve.http." + name + "." + strconv.Itoa(i+1) + "xx"
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.AddGauge(httpInFlight, 1)
		defer s.metrics.AddGauge(httpInFlight, -1)
		rec := &responseRecorder{ResponseWriter: w, start: time.Now()}
		reqID := obs.NewSpanID()

		parent, fromCaller := obs.TraceparentFromHeader(r.Header)
		tc := obs.TraceContext{SpanID: obs.NewSpanID()} // this request's span
		if fromCaller {
			// The caller decided: same trace, its sampling verdict.
			tc.TraceID = parent.TraceID
			tc.Sampled = parent.Sampled
		} else {
			tc.TraceID = obs.NewTraceID()
			tc.Sampled = s.sampleRate >= 1 || (s.sampleRate > 0 && rand.Float64() < s.sampleRate)
		}

		ctx := obs.WithTraceContext(r.Context(), tc)
		ctx = context.WithValue(ctx, requestIDKey{}, reqID)
		r = r.WithContext(ctx)

		// Echo identity before the handler writes anything, so callers can
		// correlate even an opaque 500 and SSE consumers see it on the
		// stream response.
		obs.InjectTraceparent(w.Header(), tc)
		w.Header().Set(RequestIDHeader, reqID)

		next.ServeHTTP(rec, r)
		dur := time.Since(rec.start)
		us := float64(dur.Nanoseconds()) / 1e3
		if stream {
			// Latency of a stream is its time to first byte; a stream that
			// never wrote is booked at its full (short) lifetime.
			s.metrics.Observe(httpStreamUS, us)
			s.metrics.Observe(lifetime, us)
			if rec.status != 0 {
				us = float64(rec.firstNS) / 1e3
			}
		}
		if rec.status == 0 {
			rec.status = http.StatusOK // handler wrote nothing
		}
		s.metrics.Observe(latency, us)
		s.metrics.Observe(httpRequestsUS, us)
		s.metrics.Inc(classes[min(max(rec.status/100, 1), 5)-1])
		s.metrics.Inc(httpRequests)

		// Head sampling decided up front; errors are recorded regardless.
		// The span is emitted retroactively either way, anchored at the
		// request's own start instant.
		if s.traceSink != nil && (tc.Sampled || rec.status >= 400) {
			psid := ""
			if fromCaller {
				psid = parent.SpanID
			}
			epoch := rec.start.UnixNano()
			s.traceSink.Emit(obs.Event{
				TNS: 0, Kind: obs.KindBegin, Name: span,
				Trace: tc.TraceID, SID: tc.SpanID, PSID: psid, EpochNS: epoch,
				Fields: map[string]any{"method": r.Method, "path": r.URL.Path},
			})
			s.traceSink.Emit(obs.Event{
				TNS: dur.Nanoseconds(), Kind: obs.KindEnd, Name: span,
				Trace: tc.TraceID, SID: tc.SpanID, EpochNS: epoch,
				DurNS: dur.Nanoseconds(),
				Fields: map[string]any{
					"status": rec.status, "request_id": reqID,
				},
			})
		}

		s.log.Debug("http request", "route", name, "method", r.Method,
			"path", r.URL.Path, "status", rec.status, "duration", dur,
			"trace_id", tc.TraceID, "request_id", reqID)
	})
}
