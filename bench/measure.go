package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of CHOP sees, measured with tracing off,
// each with the bound BENCHMARK.json gives it. Times are in reference time
// (see calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.20},
	{"trials_per_s", "trial/s", "higher", 0.20},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_mb_per_op", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// unbounded are printed and saved with endToEnd but left out of
// BENCHMARK.json. A batch run has a few dozen ops at most, so its p99 is
// its slowest op; machine_speed turns reference time back into wall time.
var unbounded = []metricDef{
	{"op_ms_p99", "ms", "lower", 0},
	{"machine_speed", "x", "higher", 0},
}

// perLayer are the traced run's metrics, one group per layer. Counts and
// times are per op of the traced pass unless the name says otherwise;
// README.md lists which end-to-end metric each should move on which
// workload.
var perLayer = []metricDef{
	{"bad.predict_s", "s", "lower", 0},
	{"bad.predict_calls", "count", "lower", 0},
	{"bad.designs_total", "count", "lower", 0},
	{"bad.unique_ratio", "ratio", "higher", 0},
	{"bad.kept_ratio", "ratio", "higher", 0},
	{"bad.us_per_design", "us", "lower", 0},
	{"bad.module_sets", "count", "lower", 0},
	{"bad.repeat_share", "ratio", "lower", 0},
	{"bad.cache_hit_ratio", "ratio", "higher", 0},
	{"core.search_s", "s", "lower", 0},
	{"core.trials", "count", "lower", 0},
	{"core.feasible_ratio", "ratio", "higher", 0},
	{"core.early_reject_share", "ratio", "higher", 0},
	{"core.reject.rate-mismatch", "count", "lower", 0},
	{"core.reject.area", "count", "lower", 0},
	{"core.reject.delay", "count", "lower", 0},
	{"core.reject.perf", "count", "lower", 0},
	{"core.trial_us", "us", "lower", 0},
	{"core.serializations", "count", "lower", 0},
	{"core.allocs_per_trial", "count", "lower", 0},
	{"core.w2_speedup", "x", "higher", 0},
	{"phase.schedule_s", "s", "lower", 0},
	{"phase.xfer_s", "s", "lower", 0},
	{"phase.integrate_s", "s", "lower", 0},
	{"urgency.calls", "count", "lower", 0},
	{"urgency.tasks_mean", "count", "lower", 0},
	{"urgency.cycles_mean", "count", "lower", 0},
	{"integrate.eval_us_p50", "us", "lower", 0},
	{"integrate.eval_allocs", "count", "lower", 0},
	{"xfer.tasks", "count", "lower", 0},
	{"xfer.build_tasks_us", "us", "lower", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.exec_ms_p50", "ms", "lower", 0},
	{"serve.notify_ms_p50", "ms", "lower", 0},
	{"serve.fetch_ms_p50", "ms", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.retained_mb_per_job", "MB", "lower", 0},
	{"obs.trace_events_per_job", "count", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}

// metricValue is one measured metric with the number of samples behind it.
type metricValue struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// report is what one workload child process measured.
type report struct {
	Workload  string        `json:"workload"`
	Seed      int64         `json:"seed"`
	Seconds   int           `json:"seconds"`
	Trace     bool          `json:"trace"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []metricValue `json:"metrics"`
	Notes     []string      `json:"notes,omitempty"`
}

func (r *report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return untracedDefs()
}

// untracedDefs are the metrics an untraced run records.
func untracedDefs() []metricDef {
	return append(endToEnd[:len(endToEnd):len(endToEnd)], unbounded...)
}

// set records a metric declared for the report's mode.
func (r *report) set(name string, value float64, samples int) {
	for _, d := range r.defs() {
		if d.Name == name {
			r.Metrics = append(r.Metrics, metricValue{name, d.Unit, value, samples})
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail books failed ops and says why.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	r.note("FAIL: "+format, args...)
}

// value returns a recorded metric.
func (r *report) value(name string) (metricValue, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metricValue{}, false
}

// failFrac is (errors + refusals + wrong outputs) / attempted ops.
func (r *report) failFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// tally accumulates one untraced run: the set-ups and the timed window's
// ops, with the calibration interleaved with them.
type tally struct {
	setups  []float64 // wall seconds per set-up
	lat     []float64 // wall ms per op
	rss     []float64 // peak RSS in MB per op
	rssErr  error     // why the peak could not be reset before an op
	trials  int
	wall    time.Duration
	mallocs uint64
	bytes   uint64
	cal     calClock
}

// fill turns a tally into the end-to-end metrics, times scaled to
// reference time by the run's machine speed.
func (t *tally) fill(r *report) {
	n := len(t.lat)
	speed := t.cal.speed()
	ref := t.wall.Seconds() * speed
	r.set("setup_s", median(t.setups)*speed, len(t.setups))
	r.set("ops_per_s", float64(n)/ref, n)
	r.set("trials_per_s", float64(t.trials)/ref, n)
	r.set("op_ms_p50", quantile(t.lat, 0.50)*speed, n)
	r.set("allocs_per_op", float64(t.mallocs)/float64(n), n)
	r.set("alloc_mb_per_op", float64(t.bytes)/float64(n)/1e6, n)
	r.set("peak_rss_mb", median(t.rss), len(t.rss))
	r.set("op_ms_p99", quantile(t.lat, 0.99)*speed, n)
	r.set("machine_speed", speed, t.cal.reps)
	if t.rssErr != nil {
		r.note("peak_rss_mb is the process's peak so far at each op: resetting it failed: %v", t.rssErr)
	}
	if beyond := int(float64(n) * 0.01); beyond < 10 {
		r.note("op_ms_p99 rests on %d ops, %d beyond p99: too few for a tail above p50, it reads as the slowest op", n, beyond)
	}
}

// measureOp runs op with its heap counters and peak RSS and books it. The
// op starts after a collection that returns free memory to the system, so
// its peak RSS is its own and not what earlier work left resident. The
// caller calibrates for the returned time once the op's state is released.
func (t *tally) measureOp(op func() error) (time.Duration, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil && t.rssErr == nil {
		t.rssErr = err
	}
	var md memDelta
	md.start()
	t0 := time.Now()
	err := op()
	d := time.Since(t0)
	m, b := md.stop()
	if err != nil {
		return d, err
	}
	t.rss = append(t.rss, peakRSSMB())
	t.wall += d
	t.mallocs += m
	t.bytes += b
	return d, nil
}

// memDelta brackets a measured section with heap counters.
type memDelta struct{ ms runtime.MemStats }

func (m *memDelta) start() { runtime.ReadMemStats(&m.ms) }

// stop returns the objects and bytes allocated since start.
func (m *memDelta) stop() (mallocs, bytes uint64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.Mallocs - m.ms.Mallocs, now.TotalAlloc - m.ms.TotalAlloc
}

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles taken as Python's statistics.quantiles(xs,
// n=4) takes them (its exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := i * (len(s) + 1)
		j := min(max(m/4, 1), len(s)-1)
		delta := float64(m - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / median(s)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// resetPeakRSS restarts the process's resident-set high-water mark at its
// current RSS (Linux 4.0 and later).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}
