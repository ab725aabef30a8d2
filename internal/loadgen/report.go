// Package loadgen is the serve plane's load-test harness: it replays a
// configurable submit/stream/cancel mix against a live server at a target
// request rate through serve.Client, measures submit and time-to-first-
// byte latency distributions, SSE fan-out behavior, and client/server
// goroutine and file-descriptor stability, and emits a schema-versioned
// report that Compare gates against a baseline, so traffic capacity is a
// regression-gated number rather than a hope.
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// SchemaVersion identifies the report format. Compare refuses reports from
// a schema family it does not speak.
const SchemaVersion = "chop-loadgen/1"

var knownSchemas = map[string]bool{SchemaVersion: true}

// Latency is one operation class's latency distribution, in milliseconds.
type Latency struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"meanMS"`
	P50MS  float64 `json:"p50MS"`
	P95MS  float64 `json:"p95MS"`
	P99MS  float64 `json:"p99MS"`
	MaxMS  float64 `json:"maxMS"`
}

// summarize folds raw millisecond samples into a Latency. Percentiles use
// the nearest-rank method on the sorted samples.
func summarize(samples []float64) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	rank := func(p float64) float64 {
		i := int(p*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Latency{
		Count:  len(sorted),
		MeanMS: sum / float64(len(sorted)),
		P50MS:  rank(0.50),
		P95MS:  rank(0.95),
		P99MS:  rank(0.99),
		MaxMS:  sorted[len(sorted)-1],
	}
}

// Report is the schema-versioned outcome of one load run (loadgen.json).
type Report struct {
	Schema    string    `json:"schema"`
	Timestamp time.Time `json:"timestamp"`
	Target    string    `json:"target"`
	Kind      string    `json:"kind"`

	// TargetRPS is the configured submit rate; AchievedRPS what the run
	// actually sustained; DurationSec the measured wall clock.
	TargetRPS   float64 `json:"targetRPS"`
	AchievedRPS float64 `json:"achievedRPS"`
	DurationSec float64 `json:"durationSec"`

	// Submitted counts submit attempts; Accepted the 202s; Skipped the
	// schedule ticks dropped because MaxInFlight was saturated (client-side
	// backpressure); Rejected buckets server rejections by envelope reason
	// ("rate-limited", "queue-full", ...; "transport" for wire errors).
	Submitted int            `json:"submitted"`
	Accepted  int            `json:"accepted"`
	Skipped   int            `json:"skipped"`
	Rejected  map[string]int `json:"rejected,omitempty"`
	// Outcomes buckets accepted runs by how they ended ("done", "failed",
	// "canceled", "await-error").
	Outcomes map[string]int `json:"outcomes,omitempty"`

	// Submit is the POST /api/v1/runs latency over accepted and rejected
	// submissions alike; TTFB the SSE time-to-first-event latency across
	// every subscriber.
	Submit Latency `json:"submit"`
	TTFB   Latency `json:"ttfb"`

	// Streams counts SSE fan-outs opened (each with Subscribers parallel
	// consumers); StreamEvents the trace events received across all of them.
	Streams      int   `json:"streams"`
	Subscribers  int   `json:"subscribers"`
	StreamEvents int64 `json:"streamEvents"`

	// Goroutine and FD stability: client process and server (scraped from
	// /debug/pprof/goroutine) before the first operation and after the last
	// one settled. FDs are -1 when the platform does not expose them.
	GoroutinesBefore       int `json:"goroutinesBefore"`
	GoroutinesAfter        int `json:"goroutinesAfter"`
	ServerGoroutinesBefore int `json:"serverGoroutinesBefore"`
	ServerGoroutinesAfter  int `json:"serverGoroutinesAfter"`
	FDsBefore              int `json:"fdsBefore"`
	FDsAfter               int `json:"fdsAfter"`
}

// Save writes the report as indented JSON.
func (r *Report) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a report and checks its schema family.
func Load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !knownSchemas[r.Schema] {
		return nil, fmt.Errorf("%s: schema %q, this harness speaks %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Tolerances bounds how much a run may degrade before Compare flags it. A
// non-positive field disables that gate.
type Tolerances struct {
	// LatencyPct is the allowed p99 growth (submit and TTFB) in percent
	// over the baseline.
	LatencyPct float64
	// GoroutineGrowth is the allowed within-run goroutine growth (after
	// minus before, client and server separately) in the new report — a
	// leak gate on the run itself, not a baseline delta.
	GoroutineGrowth int
	// FDGrowth is the same gate for file descriptors.
	FDGrowth int
}

// Finding is one gate's verdict.
type Finding struct {
	Gate       string  `json:"gate"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	Limit      float64 `json:"limit"`
	Regression bool    `json:"regression"`
}

// Compare gates a new report against a baseline: p99 submit and TTFB
// latency growth against LatencyPct, and the new run's own goroutine/FD
// growth against the absolute leak budgets. The second return reports
// whether any gate fired.
func Compare(old, cur *Report, tol Tolerances) ([]Finding, bool) {
	var findings []Finding
	regressed := false
	add := func(f Finding) {
		regressed = regressed || f.Regression
		findings = append(findings, f)
	}
	if tol.LatencyPct > 0 {
		latency := func(gate string, o, n float64) {
			if o <= 0 || n <= 0 {
				return // absent in one report: the mix changed, not a regression
			}
			pct := (n - o) / o * 100
			add(Finding{Gate: gate, Old: o, New: n, Limit: tol.LatencyPct,
				Regression: pct >= tol.LatencyPct})
		}
		latency("submit-p99", old.Submit.P99MS, cur.Submit.P99MS)
		latency("ttfb-p99", old.TTFB.P99MS, cur.TTFB.P99MS)
	}
	if tol.GoroutineGrowth > 0 {
		leak := func(gate string, before, after int) {
			if before < 0 || after < 0 {
				return // sample unavailable (scrape failed): gate skipped
			}
			add(Finding{Gate: gate, Old: float64(before), New: float64(after),
				Limit:      float64(tol.GoroutineGrowth),
				Regression: after-before > tol.GoroutineGrowth})
		}
		leak("client-goroutines", cur.GoroutinesBefore, cur.GoroutinesAfter)
		leak("server-goroutines", cur.ServerGoroutinesBefore, cur.ServerGoroutinesAfter)
	}
	if tol.FDGrowth > 0 && cur.FDsBefore >= 0 && cur.FDsAfter >= 0 {
		add(Finding{Gate: "client-fds",
			Old: float64(cur.FDsBefore), New: float64(cur.FDsAfter),
			Limit:      float64(tol.FDGrowth),
			Regression: cur.FDsAfter-cur.FDsBefore > tol.FDGrowth})
	}
	return findings, regressed
}

// FormatFindings renders the gate table.
func FormatFindings(findings []Finding) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %12s %12s %10s\n", "gate", "old", "new", "limit")
	for _, f := range findings {
		flag := ""
		if f.Regression {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(&b, "%-20s %12.2f %12.2f %10.0f%s\n", f.Gate, f.Old, f.New, f.Limit, flag)
	}
	return b.String()
}

// FormatReport renders the human summary printed after a run.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %s kind=%s %.1fs at %.1f rps (achieved %.1f)\n",
		r.Target, r.Kind, r.DurationSec, r.TargetRPS, r.AchievedRPS)
	fmt.Fprintf(&b, "  submitted %d accepted %d skipped %d", r.Submitted, r.Accepted, r.Skipped)
	if len(r.Rejected) > 0 {
		keys := make([]string, 0, len(r.Rejected))
		for k := range r.Rejected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, r.Rejected[k]))
		}
		fmt.Fprintf(&b, " rejected(%s)", strings.Join(parts, " "))
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  submit p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms (n=%d)\n",
		r.Submit.P50MS, r.Submit.P95MS, r.Submit.P99MS, r.Submit.MaxMS, r.Submit.Count)
	if r.TTFB.Count > 0 {
		fmt.Fprintf(&b, "  ttfb   p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms (n=%d, %d streams x %d subs, %d events)\n",
			r.TTFB.P50MS, r.TTFB.P95MS, r.TTFB.P99MS, r.TTFB.MaxMS, r.TTFB.Count,
			r.Streams, r.Subscribers, r.StreamEvents)
	}
	fmt.Fprintf(&b, "  goroutines client %d->%d server %d->%d",
		r.GoroutinesBefore, r.GoroutinesAfter,
		r.ServerGoroutinesBefore, r.ServerGoroutinesAfter)
	if r.FDsBefore >= 0 && r.FDsAfter >= 0 {
		fmt.Fprintf(&b, " fds %d->%d", r.FDsBefore, r.FDsAfter)
	} else {
		b.WriteString(" fds unknown (no /proc)")
	}
	b.WriteString("\n")
	return b.String()
}
