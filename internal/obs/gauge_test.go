package obs

import (
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
