package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metrics is a concurrency-safe counter, gauge and histogram registry. A
// nil *Metrics is valid and drops every update, so instrumented code needs
// no enabled-checks outside hot loops. The zero value is ready to use.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]*gauge
	hists    map[string]*hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// Inc adds 1 to the named counter.
func (m *Metrics) Inc(name string) { m.Add(name, 1) }

// Add adds delta to the named counter.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.counters == nil {
		m.counters = make(map[string]int64)
	}
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counter returns the current value of a counter (0 if absent).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// gauge is one point-in-time value, optionally carrying a rendered
// Prometheus label block (`{k="v",...}`). Registry maps key gauges by
// name+labels so one name can expose several labeled series.
type gauge struct {
	name   string // registry name without labels
	labels string // rendered label block, "" when unlabeled
	val    float64
}

// SetGauge sets the named gauge to v.
func (m *Metrics) SetGauge(name string, v float64) { m.setGauge(name, "", v, false) }

// AddGauge adds delta (which may be negative) to the named gauge. Gauges
// start at 0, so matched +1/-1 pairs implement in-flight counts.
func (m *Metrics) AddGauge(name string, delta float64) { m.setGauge(name, "", delta, true) }

// SetGaugeLabels sets a labeled gauge series, e.g. the build-info idiom
//
//	m.SetGaugeLabels("build_info", map[string]string{"go_version": v}, 1)
//
// which exposes as `chop_build_info{go_version="..."} 1`. Labels are
// rendered sorted by key with Prometheus escaping, so the series identity
// is deterministic.
func (m *Metrics) SetGaugeLabels(name string, labels map[string]string, v float64) {
	m.setGauge(name, renderLabels(labels), v, false)
}

func (m *Metrics) setGauge(name, labels string, v float64, add bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.gauges == nil {
		m.gauges = make(map[string]*gauge)
	}
	g := m.gauges[name+labels]
	if g == nil {
		g = &gauge{name: name, labels: labels}
		m.gauges[name+labels] = g
	}
	if add {
		g.val += v
	} else {
		g.val = v
	}
	m.mu.Unlock()
}

// Gauge returns the current value of an unlabeled gauge (0 if absent).
func (m *Metrics) Gauge(name string) float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.gauges[name]; g != nil {
		return g.val
	}
	return 0
}

// renderLabels renders a Prometheus label block with sorted keys and
// escaped values (backslash, double quote and newline, per the text
// exposition format). Returns "" for an empty map.
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		v := labels[k]
		v = strings.ReplaceAll(v, `\`, `\\`)
		v = strings.ReplaceAll(v, `"`, `\"`)
		v = strings.ReplaceAll(v, "\n", `\n`)
		b.WriteString(v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Observe records one sample into the named histogram. Samples are
// unitless; by convention the pipeline uses "_us" name suffixes for
// microsecond latencies.
func (m *Metrics) Observe(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.histLocked(name).observe(v)
	m.mu.Unlock()
}

// Histogram is a histogram value with the registry's bucket scheme and no
// lock: one writer observes into it on a hot path and folds it into a
// registry with MergeHistogram. The zero value is empty.
type Histogram struct {
	h hist
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.h.observe(v) }

// MergeHistogram folds h into the named histogram bucket-wise: count,
// sum, min, max and bucket occupancy all combine. An empty h creates
// nothing.
func (m *Metrics) MergeHistogram(name string, h *Histogram) {
	if m == nil || h.h.count == 0 {
		return
	}
	m.mu.Lock()
	m.histLocked(name).merge(&h.h)
	m.mu.Unlock()
}

// histLocked returns the named histogram, creating it empty. m.mu must be
// held.
func (m *Metrics) histLocked(name string) *hist {
	if m.hists == nil {
		m.hists = make(map[string]*hist)
	}
	h := m.hists[name]
	if h == nil {
		h = &hist{}
		m.hists[name] = h
	}
	return h
}

// Timer starts a latency measurement; calling the returned function
// observes the elapsed time in microseconds on the named histogram:
//
//	defer m.Timer("core.search_us")()
func (m *Metrics) Timer(name string) func() {
	if m == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { m.Observe(name, float64(time.Since(t0).Nanoseconds())/1e3) }
}

// histBuckets is the number of base-2 exponential histogram buckets;
// bucket b holds samples in (2^(b-1), 2^b], bucket 0 holds v <= 1.
const histBuckets = 64

type hist struct {
	count    int64
	sum      float64
	min, max float64
	buckets  [histBuckets]int64
}

func (h *hist) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// merge folds o into h: count, sum, min, max and bucket occupancy all
// combine.
func (h *hist) merge(o *hist) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for b := range o.buckets {
		h.buckets[b] += o.buckets[b]
	}
}

func bucketOf(v float64) int {
	if !(v > 1) { // also catches NaN
		return 0
	}
	b := int(math.Ceil(math.Log2(v)))
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// quantile estimates the q-quantile (0..1) from the bucket counts as the
// upper bound of the bucket holding the q-th sample, clamped into the
// observed [min, max] range.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen int64
	for b, c := range h.buckets {
		seen += c
		if seen > rank {
			up := math.Exp2(float64(b))
			if up > h.max {
				up = h.max
			}
			if up < h.min {
				up = h.min
			}
			return up
		}
	}
	return h.max
}

// quantiles estimates several quantiles in one call. qs must be ascending;
// the reported values are forced monotonically non-decreasing, so the
// independent [min, max] clamping of quantile can never report p50 > p90
// on skewed bucket contents.
func (h *hist) quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if h.count == 0 {
		return out
	}
	floor := math.Inf(-1)
	for i, q := range qs {
		v := h.quantile(q)
		if v < floor {
			v = floor
		}
		floor = v
		out[i] = v
	}
	return out
}

// HistSnapshot is the exported state of one histogram.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of the whole registry. Gauge keys
// include their rendered label block when the gauge is labeled.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Safe to call on a nil registry (returns an
// empty snapshot).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistSnapshot),
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, g := range m.gauges {
		s.Gauges[k] = g.val
	}
	for k, h := range m.hists {
		q := h.quantiles(0.50, 0.90, 0.99)
		hs := HistSnapshot{
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			P50: q[0], P90: q[1], P99: q[2],
		}
		if h.count > 0 {
			hs.Mean = h.sum / float64(h.count)
		}
		s.Histograms[k] = hs
	}
	return s
}

// Text renders the registry as an aligned, sorted plain-text dump.
func (m *Metrics) Text() string {
	s := m.Snapshot()
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		names := make([]string, 0, len(s.Counters))
		for k := range s.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "  %-36s %12d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		names := make([]string, 0, len(s.Gauges))
		for k := range s.Gauges {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(&b, "  %-36s %12g\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		names := make([]string, 0, len(s.Histograms))
		for k := range s.Histograms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "  %-36s count=%d mean=%.1f min=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f\n",
				k, h.Count, h.Mean, h.Min, h.P50, h.P90, h.P99, h.Max)
		}
	}
	if b.Len() == 0 {
		return "no metrics recorded\n"
	}
	return b.String()
}
