package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestMergeIntoEmptyAndNil: MergeHistogram into an empty registry creates
// the histogram with the value's samples, leaving the value untouched, and
// a nil registry ignores it.
func TestMergeIntoEmptyAndNil(t *testing.T) {
	var h Histogram
	h.Observe(3)
	h.Observe(40)

	dst := NewMetrics()
	dst.MergeHistogram("h", &h)
	got := dst.Snapshot().Histograms["h"]
	if got.Count != 2 || got.Sum != 43 || got.Min != 3 || got.Max != 40 {
		t.Fatalf("merge into empty = %+v", got)
	}
	dst.MergeHistogram("h", &h)
	if got := dst.Snapshot().Histograms["h"]; got.Count != 4 || got.Sum != 86 {
		t.Fatalf("merging the same value again = %+v, want it counted twice", got)
	}

	var nilM *Metrics
	nilM.MergeHistogram("h", &h) // no panic
}

// TestMergeUnderConcurrentWriters: search workers' recorder flushes
// (counter adds and MergeHistogram of their tallies) race direct writers
// and readers on one registry, as every serve job's workers do on the
// server-wide one, and the registry accounts for every write exactly once.
// Meaningful under -race.
func TestMergeUnderConcurrentWriters(t *testing.T) {
	const (
		writers  = 4
		flushes  = 50
		perFlush = 20
	)
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(2)
		go func() { // a worker flushing its tally
			defer wg.Done()
			for f := 0; f < flushes; f++ {
				var h Histogram
				for i := 0; i < perFlush; i++ {
					h.Observe(float64(i))
				}
				m.Add("core.trials", perFlush)
				m.MergeHistogram("core.integrate_us", &h)
			}
		}()
		go func(g int) { // server-side writers and readers
			defer wg.Done()
			for i := 0; i < flushes*perFlush; i++ {
				m.Inc("serve.http.requests")
				m.Observe("serve.http.request_us", float64(i%64))
				m.SetGaugeLabels("worker", map[string]string{"id": fmt.Sprint(g)}, float64(i))
				if i%100 == 0 {
					m.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	snap := m.Snapshot()
	const total = writers * flushes * perFlush
	if got := snap.Counters["core.trials"]; got != total {
		t.Fatalf("core.trials = %d, want %d", got, total)
	}
	if got := snap.Counters["serve.http.requests"]; got != total {
		t.Fatalf("serve.http.requests = %d, want %d", got, total)
	}
	for name, max := range map[string]float64{"core.integrate_us": perFlush - 1, "serve.http.request_us": 63} {
		if h := snap.Histograms[name]; h.Count != total || h.Min != 0 || h.Max != max {
			t.Fatalf("%s = %+v, want %d samples over 0..%g", name, h, total, max)
		}
	}
	for g := 0; g < writers; g++ {
		key := fmt.Sprintf(`worker{id="%d"}`, g)
		if v, ok := snap.Gauges[key]; !ok || v != flushes*perFlush-1 {
			t.Fatalf("labeled gauge %s = %v (present %v), want %d", key, v, ok, flushes*perFlush-1)
		}
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
