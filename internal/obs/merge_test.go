package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestMergeCountersGaugesHistograms pins Merge's semantics: counters add,
// histograms combine bucket-wise (count/sum/min/max), plain and labeled
// gauges take the source's latest value without colliding across label sets.
func TestMergeCountersGaugesHistograms(t *testing.T) {
	dst := NewMetrics()
	dst.Add("core.trials", 10)
	dst.Observe("run_us", 1)
	dst.Observe("run_us", 100)
	dst.SetGauge("inflight", 2)
	dst.SetGaugeLabels("build_info", map[string]string{"rev": "a"}, 1)

	src := NewMetrics()
	src.Add("core.trials", 5)
	src.Inc("core.reject.perf")
	src.Observe("run_us", 50)
	src.Observe("predict_us", 7)
	src.SetGauge("inflight", 9)
	src.SetGaugeLabels("build_info", map[string]string{"rev": "b"}, 1)

	dst.Merge(src)

	if got := dst.Counter("core.trials"); got != 15 {
		t.Fatalf("merged counter = %d, want 15", got)
	}
	if got := dst.Counter("core.reject.perf"); got != 1 {
		t.Fatalf("new counter = %d, want 1", got)
	}
	snap := dst.Snapshot()
	h := snap.Histograms["run_us"]
	if h.Count != 3 || h.Sum != 151 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("merged histogram = %+v", h)
	}
	if p := snap.Histograms["predict_us"]; p.Count != 1 || p.Sum != 7 {
		t.Fatalf("imported histogram = %+v", p)
	}
	if got := dst.Gauge("inflight"); got != 9 {
		t.Fatalf("merged gauge = %v, want the source's latest 9", got)
	}
	// Both labeled series must survive side by side.
	for _, rev := range []string{"a", "b"} {
		key := fmt.Sprintf(`build_info{rev="%s"}`, rev)
		if v, ok := snap.Gauges[key]; !ok || v != 1 {
			t.Fatalf("labeled gauge %s = %v (present %v), want 1", key, v, ok)
		}
	}
}

func TestMergeIntoEmptyAndNil(t *testing.T) {
	src := NewMetrics()
	src.Inc("a")
	src.Observe("h", 3)

	dst := NewMetrics()
	dst.Merge(src)
	if dst.Counter("a") != 1 || dst.Snapshot().Histograms["h"].Count != 1 {
		t.Fatalf("merge into empty lost data: %+v", dst.Snapshot())
	}

	var nilM *Metrics
	nilM.Merge(src) // no panic
	dst.Merge(nil)  // no panic, no change
	if dst.Counter("a") != 1 {
		t.Fatalf("merge(nil) changed state")
	}
}

// TestMergeUnderConcurrentWriters is the telemetry-plane satellite: repeated
// merges race against live writers on both registries — counters, labeled
// gauges and histograms all in flight — and the final fold must account for
// every write exactly once. Meaningful under -race, and the counter total is
// exact because merge-then-read happens after all writers join.
func TestMergeUnderConcurrentWriters(t *testing.T) {
	const (
		writers   = 4
		perWriter = 1000
	)
	agg := NewMetrics()
	var wg sync.WaitGroup

	// Writers on the aggregate registry itself, racing the merges.
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				agg.Inc("agg.trials")
				agg.Observe("agg_us", float64(i%64))
				agg.SetGaugeLabels("worker", map[string]string{"id": fmt.Sprint(g)}, float64(i))
			}
		}(g)
	}

	// Per-run registries, each merged into the aggregate while its writer
	// may still be running (the serve layer merges on run completion, but
	// Merge's contract is lock-safe at any time).
	runs := make([]*Metrics, writers)
	for g := 0; g < writers; g++ {
		runs[g] = NewMetrics()
		wg.Add(2)
		go func(m *Metrics, g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				m.Inc("run.trials")
				m.Observe("run_us", float64(i%64))
				m.SetGaugeLabels("run", map[string]string{"id": fmt.Sprint(g)}, float64(i))
			}
		}(runs[g], g)
		go func(m *Metrics) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				agg.Merge(m)
			}
		}(runs[g])
	}
	wg.Wait()

	// One final quiescent merge per run registry into a fresh aggregate
	// gives the exact expected totals.
	final := NewMetrics()
	for _, m := range runs {
		final.Merge(m)
	}
	if got := final.Counter("run.trials"); got != writers*perWriter {
		t.Fatalf("final merged counter = %d, want %d", got, writers*perWriter)
	}
	h := final.Snapshot().Histograms["run_us"]
	if h.Count != writers*perWriter {
		t.Fatalf("final merged histogram count = %d, want %d", h.Count, writers*perWriter)
	}
	if h.Min != 0 || h.Max != 63 {
		t.Fatalf("final merged histogram min/max = %v/%v, want 0/63", h.Min, h.Max)
	}
	for g := 0; g < writers; g++ {
		key := fmt.Sprintf(`run{id="%d"}`, g)
		if v, ok := final.Snapshot().Gauges[key]; !ok || v != perWriter-1 {
			t.Fatalf("labeled gauge %s = %v (present %v), want %d", key, v, ok, perWriter-1)
		}
	}
	// The racing aggregate is not exactly checkable, but its own counters
	// must at least reflect its own writers fully.
	if got := agg.Counter("agg.trials"); got != writers*perWriter {
		t.Fatalf("aggregate's own counter = %d, want %d", got, writers*perWriter)
	}
}

// TestMergeHistogramMatchesObserve: samples observed into a Histogram
// value and folded into a registry, in two batches, give the same
// snapshot as observing them into the registry one by one, and an empty
// Histogram creates no entry.
func TestMergeHistogramMatchesObserve(t *testing.T) {
	direct, folded := NewMetrics(), NewMetrics()
	var h Histogram
	folded.MergeHistogram("x_us", &h)
	if _, ok := folded.Snapshot().Histograms["x_us"]; ok {
		t.Fatal("an empty Histogram created a registry entry")
	}
	samples := []float64{0.5, 3, 3, 17, 1000, 2, 64, 65}
	for i, v := range samples {
		direct.Observe("x_us", v)
		h.Observe(v)
		if i == 3 {
			folded.MergeHistogram("x_us", &h)
			h = Histogram{}
		}
	}
	folded.MergeHistogram("x_us", &h)
	got, want := folded.Snapshot().Histograms["x_us"], direct.Snapshot().Histograms["x_us"]
	if got != want {
		t.Fatalf("folded histogram %+v, observed %+v", got, want)
	}
}
