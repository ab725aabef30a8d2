package obs

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func TestNilMetricsIsNoOp(t *testing.T) {
	var m *Metrics
	m.Inc("a")
	m.Add("a", 5)
	m.Observe("h", 1.5)
	m.Timer("t")()
	if got := m.Counter("a"); got != 0 {
		t.Fatalf("nil metrics counter = %d", got)
	}
	s := m.Snapshot()
	if len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil metrics snapshot not empty: %+v", s)
	}
	if m.Text() == "" {
		t.Fatal("nil metrics Text empty")
	}
}

func TestCountersAndHistograms(t *testing.T) {
	m := NewMetrics()
	m.Inc("core.trials")
	m.Add("core.trials", 4)
	for _, v := range []float64{1, 2, 4, 8, 100} {
		m.Observe("integrate_us", v)
	}
	if got := m.Counter("core.trials"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	s := m.Snapshot()
	h, ok := s.Histograms["integrate_us"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if h.Count != 5 || h.Min != 1 || h.Max != 100 || h.Sum != 115 {
		t.Fatalf("histogram stats wrong: %+v", h)
	}
	if h.Mean != 23 {
		t.Fatalf("mean = %v, want 23", h.Mean)
	}
	if h.P50 < 2 || h.P50 > 8 {
		t.Fatalf("p50 = %v, expected within [2, 8]", h.P50)
	}
	if h.P99 != 100 {
		t.Fatalf("p99 = %v, want 100 (clamped to max)", h.P99)
	}

	text := m.Text()
	if !strings.Contains(text, "core.trials") || !strings.Contains(text, "integrate_us") {
		t.Fatalf("text dump missing entries:\n%s", text)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v float64
		b int
	}{
		{-3, 0}, {0, 0}, {0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {3, 2}, {4, 2},
		{1024, 10}, {1e30, 63}, {1e300, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.b {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.b)
		}
	}
}

// TestQuantileMonotone is a property-style check over random skewed
// samples: reported quantiles must satisfy min <= p50 <= p90 <= p99 <= max
// and min <= mean <= max, whatever the bucket contents.
func TestQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := NewMetrics()
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(4) {
			case 0: // tiny, sub-bucket values (incl. negatives)
				v = rng.Float64()*4 - 2
			case 1: // mid-range
				v = rng.Float64() * 100
			case 2: // heavy tail
				v = math.Exp2(rng.Float64() * 40)
			default: // clustered narrow band inside one bucket
				v = 1000 + rng.Float64()
			}
			m.Observe("h", v)
		}
		h := m.Snapshot().Histograms["h"]
		if !(h.Min <= h.P50 && h.P50 <= h.P90 && h.P90 <= h.P99 && h.P99 <= h.Max) {
			t.Fatalf("trial %d (n=%d): quantiles not monotone: min=%g p50=%g p90=%g p99=%g max=%g",
				trial, n, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
		if !(h.Min <= h.Mean && h.Mean <= h.Max) {
			t.Fatalf("trial %d (n=%d): mean %g outside [%g, %g]",
				trial, n, h.Mean, h.Min, h.Max)
		}
	}
}

// TestMetricsRace exercises the registry from many goroutines; run with
// -race (the CI target does) to verify the locking.
func TestMetricsRace(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				m.Inc("shared")
				m.Observe("lat", float64(j%32))
				if j%100 == 0 {
					_ = m.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := m.Counter("shared"); got != 4000 {
		t.Fatalf("shared counter = %d, want 4000", got)
	}
	if got := m.Snapshot().Histograms["lat"].Count; got != 4000 {
		t.Fatalf("lat count = %d, want 4000", got)
	}
}
