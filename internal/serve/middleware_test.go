package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chop/internal/obs"
)

// instrumented wraps h in the middleware of a fresh server that records
// into m.
func instrumented(t *testing.T, m *obs.Metrics, name string, stream bool, h http.HandlerFunc) http.Handler {
	t.Helper()
	s := New(Options{MaxConcurrent: 1, Metrics: m})
	t.Cleanup(func() { s.Drain(context.Background()) })
	return s.instrument(name, stream, h)
}

func TestInstrumentHandler(t *testing.T) {
	m := obs.NewMetrics()
	h := instrumented(t, m, "get_run", false, func(w http.ResponseWriter, r *http.Request) {
		if m.Gauge("serve.http.in_flight") != 1 {
			t.Error("in-flight gauge not raised during request")
		}
		w.WriteHeader(http.StatusNotFound)
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/runs/r1", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rec.Code)
	}
	if got := m.Counter("serve.http.get_run.4xx"); got != 1 {
		t.Errorf("status-class counter = %d", got)
	}
	if got := m.Counter("serve.http.requests"); got != 1 {
		t.Errorf("requests counter = %d", got)
	}
	if got := m.Gauge("serve.http.in_flight"); got != 0 {
		t.Errorf("in-flight gauge after request = %v", got)
	}
	if m.Snapshot().Histograms["serve.http.get_run_us"].Count != 1 {
		t.Error("route latency histogram missing")
	}
	if m.Snapshot().Histograms["serve.http.request_us"].Count != 1 {
		t.Error("aggregate latency histogram missing")
	}
}

// TestInstrumentHandlerDefaultStatus checks a handler that never calls
// WriteHeader counts as 2xx.
func TestInstrumentHandlerDefaultStatus(t *testing.T) {
	m := obs.NewMetrics()
	h := instrumented(t, m, "healthz", false, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if got := m.Counter("serve.http.healthz.2xx"); got != 1 {
		t.Errorf("implicit 200 not counted: %d", got)
	}
}

func TestInstrumentHandlerFlusher(t *testing.T) {
	var isFlusher bool
	h := instrumented(t, obs.NewMetrics(), "events", false, func(w http.ResponseWriter, r *http.Request) {
		_, isFlusher = w.(http.Flusher)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	})
	rec := httptest.NewRecorder() // httptest.ResponseRecorder implements Flusher
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !isFlusher {
		t.Fatal("instrumented writer lost http.Flusher — SSE would buffer")
	}
	if !rec.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}
}

// TestInstrumentStreamHandlerTTFB is the SSE latency-skew regression test:
// a streaming route's request histograms must record time-to-first-byte,
// not the connection lifetime, which instead lands in stream_us and the
// per-route lifetime histogram.
func TestInstrumentStreamHandlerTTFB(t *testing.T) {
	m := obs.NewMetrics()
	const hold = 60 * time.Millisecond
	h := instrumented(t, m, "events", true, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK) // first byte: immediately
		time.Sleep(hold)             // then the stream stays open
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/events", nil))

	snap := m.Snapshot()
	req := snap.Histograms["serve.http.events_us"]
	agg := snap.Histograms["serve.http.request_us"]
	life := snap.Histograms["serve.http.events.lifetime_us"]
	stream := snap.Histograms["serve.http.stream_us"]
	holdUS := float64(hold.Microseconds())
	if req.Count != 1 || req.Max >= holdUS {
		t.Fatalf("route latency recorded lifetime, not TTFB: %+v (hold %v)", req, holdUS)
	}
	if agg.Count != 1 || agg.Max >= holdUS {
		t.Fatalf("aggregate latency recorded lifetime: %+v", agg)
	}
	if life.Count != 1 || life.Max < holdUS {
		t.Fatalf("lifetime histogram missing the hold: %+v", life)
	}
	if stream.Count != 1 || stream.Max < holdUS {
		t.Fatalf("stream_us missing the hold: %+v", stream)
	}
	if m.Counter("serve.http.events.2xx") != 1 || m.Counter("serve.http.requests") != 1 {
		t.Fatalf("status counters wrong: %s", m.Text())
	}
	if g := m.Gauge("serve.http.in_flight"); g != 0 {
		t.Fatalf("in-flight gauge = %v after completion", g)
	}
}

// TestInstrumentStreamHandlerNeverWrote: a stream that ends without writing
// books its (short) full duration as the request latency.
func TestInstrumentStreamHandlerNeverWrote(t *testing.T) {
	m := obs.NewMetrics()
	h := instrumented(t, m, "quiet", true, func(w http.ResponseWriter, r *http.Request) {})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/q", nil))
	snap := m.Snapshot()
	if snap.Histograms["serve.http.quiet_us"].Count != 1 {
		t.Fatalf("request histogram missing: %+v", snap.Histograms)
	}
	if m.Counter("serve.http.quiet.2xx") != 1 {
		t.Fatalf("empty stream not booked as 200: %s", m.Text())
	}
}

// TestInstrumentHandlerNonStreamUnchanged pins the plain path: no stream_us
// entries, full duration in the request histograms.
func TestInstrumentHandlerNonStreamUnchanged(t *testing.T) {
	m := obs.NewMetrics()
	h := instrumented(t, m, "plain", false, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/p", nil))
	snap := m.Snapshot()
	if _, ok := snap.Histograms["serve.http.stream_us"]; ok {
		t.Fatal("plain route wrote stream_us")
	}
	if _, ok := snap.Histograms["serve.http.plain.lifetime_us"]; ok {
		t.Fatal("plain route wrote a lifetime histogram")
	}
	if m.Counter("serve.http.plain.4xx") != 1 {
		t.Fatalf("status class wrong: %s", m.Text())
	}
}
