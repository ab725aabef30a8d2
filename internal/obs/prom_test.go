package obs

import (
	"strconv"
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"core.trials":           "chop_core_trials",
		"core.reject.chip-area": "chop_core_reject_chip_area",
		"bad.predict_us":        "chop_bad_predict_us",
		"weird name/with:stuff": "chop_weird_name_with:stuff",
		"söme.ütf8":             "chop_s__me___tf8", // ö is 2 bytes, each escaped
		`quote"brace{equals=`:   "chop_quote_brace_equals_",
		"0starts.with.digit":    "chop_0starts_with_digit",
		"":                      "chop_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestPromGolden pins the full exposition output: name escaping, counter
// and histogram rendering, and deterministic ordering.
func TestPromGolden(t *testing.T) {
	m := NewMetrics()
	m.Add("core.trials", 7)
	m.Add("core.reject.chip-area", 2)
	m.Observe("core.integrate_us", 0.5) // bucket 0, le="1"
	m.Observe("core.integrate_us", 3)   // bucket 2, le="4"
	m.Observe("core.integrate_us", 100) // bucket 7, le="128"

	want := `# TYPE chop_core_reject_chip_area counter
chop_core_reject_chip_area 2
# TYPE chop_core_trials counter
chop_core_trials 7
# TYPE chop_core_integrate_us histogram
chop_core_integrate_us_bucket{le="1"} 1
chop_core_integrate_us_bucket{le="4"} 2
chop_core_integrate_us_bucket{le="128"} 3
chop_core_integrate_us_bucket{le="+Inf"} 3
chop_core_integrate_us_sum 103.5
chop_core_integrate_us_count 3
`
	if got := m.PromText(); got != want {
		t.Errorf("PromText mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestPromRoundTrip checks that every exposed counter sample equals the
// Snapshot value it came from, by parsing the text format back.
func TestPromRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Add("core.trials", 123)
	m.Add("core.trials_feasible", 41)
	m.Add("core.reject.pin-bandwidth", 9)
	m.Add("bad.pruned_level1", 1<<40) // exercise a large value
	m.Observe("core.integrate_us", 17)

	snap := m.Snapshot()
	exposed := make(map[string]int64)
	for _, line := range strings.Split(m.PromText(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") ||
			strings.Contains(line, "_sum ") || strings.Contains(line, "_count ") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("counter %s: %v", name, err)
		}
		exposed[name] = n
	}
	if len(exposed) != len(snap.Counters) {
		t.Fatalf("exposed %d counters, snapshot has %d", len(exposed), len(snap.Counters))
	}
	for k, v := range snap.Counters {
		if got := exposed[PromName(k)]; got != v {
			t.Errorf("counter %s: exposed %d, snapshot %d", k, got, v)
		}
	}
}

func TestPromHistogramCumulative(t *testing.T) {
	m := NewMetrics()
	for v := 1.0; v <= 4096; v *= 2 {
		m.Observe("h", v)
	}
	var prev int64 = -1
	var infSeen bool
	for _, line := range strings.Split(m.PromText(), "\n") {
		if !strings.HasPrefix(line, "chop_h_bucket") {
			continue
		}
		_, val, _ := strings.Cut(line, "} ")
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative: %d after %d (%q)", n, prev, line)
		}
		prev = n
		infSeen = strings.Contains(line, `le="+Inf"`)
	}
	if !infSeen {
		t.Fatal("no +Inf bucket emitted (or not last)")
	}
	if prev != m.Snapshot().Histograms["h"].Count {
		t.Fatalf("+Inf bucket %d != count %d", prev, m.Snapshot().Histograms["h"].Count)
	}
}

func TestPromNilAndEmpty(t *testing.T) {
	var nilM *Metrics
	if got := nilM.PromText(); got != "" {
		t.Errorf("nil registry exposed %q", got)
	}
	if got := NewMetrics().PromText(); got != "" {
		t.Errorf("empty registry exposed %q", got)
	}
}
