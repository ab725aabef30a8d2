package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestGaugeSetAddGet(t *testing.T) {
	m := NewMetrics()
	m.SetGauge("serve.queue_depth", 3)
	if got := m.Gauge("serve.queue_depth"); got != 3 {
		t.Fatalf("Gauge = %v, want 3", got)
	}
	m.AddGauge("serve.queue_depth", -2)
	if got := m.Gauge("serve.queue_depth"); got != 1 {
		t.Fatalf("after AddGauge(-2) = %v, want 1", got)
	}
	m.AddGauge("fresh", 1) // AddGauge on an absent gauge starts from 0
	if got := m.Gauge("fresh"); got != 1 {
		t.Fatalf("fresh gauge = %v, want 1", got)
	}
	var nilM *Metrics
	nilM.SetGauge("x", 1) // must not panic
	nilM.AddGauge("x", 1)
	if got := nilM.Gauge("x"); got != 0 {
		t.Fatalf("nil registry Gauge = %v", got)
	}
}

func TestGaugeLabeledExposition(t *testing.T) {
	m := NewMetrics()
	m.SetGaugeLabels("build_info", map[string]string{
		"vcs_revision": "abc123",
		"go_version":   "go1.24.0",
	}, 1)
	m.SetGauge("serve.http.in_flight", 2)
	want := `# TYPE chop_build_info gauge
chop_build_info{go_version="go1.24.0",vcs_revision="abc123"} 1
# TYPE chop_serve_http_in_flight gauge
chop_serve_http_in_flight 2
`
	if got := m.PromText(); got != want {
		t.Errorf("PromText mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	snap := m.Snapshot()
	if snap.Gauges[`build_info{go_version="go1.24.0",vcs_revision="abc123"}`] != 1 {
		t.Errorf("labeled gauge missing from snapshot: %v", snap.Gauges)
	}
	if v := m.Gauge("serve.http.in_flight"); v != 2 {
		t.Errorf("Gauge = %v", v)
	}
}

func TestGaugeLabelEscaping(t *testing.T) {
	m := NewMetrics()
	m.SetGaugeLabels("g", map[string]string{"k": "a\"b\\c\nd"}, 1)
	text := m.PromText()
	if !strings.Contains(text, `chop_g{k="a\"b\\c\nd"} 1`) {
		t.Errorf("labels not escaped: %q", text)
	}
}

func TestReadBuildInfo(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.GoVersion == "" || bi.Revision == "" || bi.Module == "" {
		t.Fatalf("empty fields in %+v", bi)
	}
	// Under `go test` the toolchain version is always available.
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Errorf("GoVersion = %q", bi.GoVersion)
	}
}

func TestRecordBuildInfo(t *testing.T) {
	m := NewMetrics()
	RecordBuildInfo(m)
	text := m.PromText()
	if !strings.Contains(text, "# TYPE chop_build_info gauge") ||
		!strings.Contains(text, `go_version="`) ||
		!strings.Contains(text, `vcs_revision="`) {
		t.Errorf("build info gauge not exposed:\n%s", text)
	}
	RecordBuildInfo(nil) // nil-safe
}

func TestInstrumentHandler(t *testing.T) {
	m := NewMetrics()
	h := InstrumentHandler(m, "get_run", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if m.Gauge("serve.http.in_flight") != 1 {
			t.Error("in-flight gauge not raised during request")
		}
		w.WriteHeader(http.StatusNotFound)
	}))
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
// WriteHeader counts as 2xx, and that a nil registry serves untouched.
func TestInstrumentHandlerDefaultStatus(t *testing.T) {
	m := NewMetrics()
	h := InstrumentHandler(m, "healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if got := m.Counter("serve.http.healthz.2xx"); got != 1 {
		t.Errorf("implicit 200 not counted: %d", got)
	}

	nilH := InstrumentHandler(nil, "x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec = httptest.NewRecorder()
	nilH.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Errorf("nil-registry wrapper altered response: %d", rec.Code)
	}
}

func TestInstrumentHandlerFlusher(t *testing.T) {
	var isFlusher bool
	h := InstrumentHandler(NewMetrics(), "events", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, isFlusher = w.(http.Flusher)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}))
	rec := httptest.NewRecorder() // httptest.ResponseRecorder implements Flusher
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if !isFlusher {
		t.Fatal("instrumented writer lost http.Flusher — SSE would buffer")
	}
	if !rec.Flushed {
		t.Fatal("Flush not forwarded to the underlying writer")
	}
}
