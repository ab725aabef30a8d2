package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// StageStat aggregates all spans of one name in a trace.
type StageStat struct {
	Count   int
	TotalNS int64
	MaxNS   int64
}

// Report is the aggregation of one JSONL trace: the data behind the
// `chop explain` command. Trials sums the "tally" points' trials, which by
// construction equals SearchResult.Trials of the traced run.
type Report struct {
	// Events is the total number of trace records read.
	Events int
	// Stages maps span name -> timing stats (time breakdown per stage);
	// the "integrate" row sums the tally points' integrate times.
	Stages map[string]StageStat
	// Trials / Feasible count the examined and feasible combinations.
	Trials, Feasible int
	// Reasons histograms the rejection reasons over infeasible trials.
	Reasons map[string]int
	// ChipReasons attributes chip-specific rejections: 1-based chip
	// number -> reason -> count. Rejections that are not chip-specific
	// (rate mismatch, system perf/delay/power, …) appear only in Reasons.
	ChipReasons map[int]map[string]int
	// Serializations counts the Figure-5 serialization steps taken and
	// Pruned the level-2 pruning decisions (infeasible trials dropped).
	Serializations, Pruned int
	// Partitions maps 1-based partition number -> kept BAD designs, from
	// the per-partition BAD span end events.
	Partitions map[int]int
	// PhaseNS maps phase name -> attributed nanoseconds from the newest
	// "phases" trace point. The search emits cumulative accounter totals,
	// so replay keeps the last point per report instead of summing.
	PhaseNS map[string]int64
	// PhaseTrialNS / PhaseTrials are that point's total measured trial wall
	// time and trial count — the denominator of the phase percentages.
	PhaseTrialNS int64
	PhaseTrials  int64
	// Runs groups the same aggregation per run tag when events carry one
	// (traces from several serve jobs multiplexed into one sink). Untagged
	// traces leave it empty; the top-level report always covers all events.
	Runs map[string]*Report
	// FirstTNS/LastTNS bound the trace's event times: absolute
	// (EpochNS+TNS, as Stitch aligns them) when events carry the epoch
	// anchor, tracer-relative otherwise. Every serve run has a tracer of
	// its own, so only the absolute form spans a multi-run trace.
	FirstTNS, LastTNS int64
	// epochNS is the earliest tracer epoch seen (0: none), the origin of
	// the trial timeline; tallies holds each tally point's time and counts
	// for FormatStats to bucket per second.
	epochNS int64
	tallies []tallyMark
}

type tallyMark struct {
	tns              int64
	trials, feasible int
}

func newReport() *Report {
	return &Report{
		Stages:      make(map[string]StageStat),
		Reasons:     make(map[string]int),
		ChipReasons: make(map[int]map[string]int),
		Partitions:  make(map[int]int),
		FirstTNS:    -1,
	}
}

// readEvents decodes a JSONL trace (as written by WriterSink) and hands
// each event to fn in order. Blank lines are skipped, lines may be up to
// 16 MB, and a malformed line fails the read with its line number. Replay
// and Stitch both read traces through it.
func readEvents(r io.Reader, fn func(Event)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
		fn(ev)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read: %w", err)
	}
	return nil
}

// Replay parses a JSONL trace (as written by WriterSink) and aggregates it
// into a Report.
func Replay(r io.Reader) (*Report, error) {
	rep := newReport()
	// Begin-side fields by span (keyed as Stitch keys spans), so end
	// events are attributed even when several tracers' local IDs collide.
	begins := make(map[spanKey]map[string]any)
	err := readEvents(r, func(ev Event) {
		key := spanKey{ev.Trace, spanRef("", ev)}
		if ev.Run != "" {
			if rep.Runs == nil {
				rep.Runs = make(map[string]*Report)
			}
			sub := rep.Runs[ev.Run]
			if sub == nil {
				sub = newReport()
				rep.Runs[ev.Run] = sub
			}
			sub.ingest(ev, begins[key])
		}
		rep.ingest(ev, begins[key])
		switch {
		case ev.Kind == KindBegin && len(ev.Fields) > 0:
			begins[key] = ev.Fields
		case ev.Kind == KindEnd:
			delete(begins, key)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("obs: trace %w", err)
	}
	return rep, nil
}

// ingest folds one event into the report; begin holds the fields of the
// begin event of the span it belongs to (e.g. which partition a BAD span
// predicted).
func (r *Report) ingest(ev Event, begin map[string]any) {
	r.Events++
	at := ev.Time()
	if r.FirstTNS < 0 || at < r.FirstTNS {
		r.FirstTNS = at
	}
	if at > r.LastTNS {
		r.LastTNS = at
	}
	if ev.EpochNS != 0 && (r.epochNS == 0 || ev.EpochNS < r.epochNS) {
		r.epochNS = ev.EpochNS
	}
	switch ev.Kind {
	case KindEnd:
		r.addStage(ev.Name, 1, ev.DurNS, ev.DurNS)
		if ev.Name == "BAD" {
			pi, ok := fieldInt(begin, "partition")
			if kept, kok := fieldInt(ev.Fields, "kept"); ok && kok {
				r.Partitions[int(pi)] = int(kept)
			}
		}
	case KindPoint:
		switch ev.Name {
		case "tally":
			r.addTally(ev.Time(), ev.Fields)
		case "serialize":
			r.Serializations++
		case "phases":
			// Cumulative totals: a later point supersedes earlier ones.
			r.PhaseNS = make(map[string]int64, len(ev.Fields))
			for k := range ev.Fields {
				n, ok := fieldInt(ev.Fields, k)
				if !ok {
					continue
				}
				switch k {
				case "trialNS":
					r.PhaseTrialNS = n
				case "trials":
					r.PhaseTrials = n
				default:
					r.PhaseNS[k] = n
				}
			}
		}
	}
}

// addStage folds count spans of total and longest duration totalNS and
// maxNS into the named stage row.
func (r *Report) addStage(name string, count int, totalNS, maxNS int64) {
	st := r.Stages[name]
	st.Count += count
	st.TotalNS += totalNS
	st.MaxNS = max(st.MaxNS, maxNS)
	r.Stages[name] = st
}

// WriteTally writes one flush of a search worker's tally as the "tally"
// point of sp that Replay counts trials from: t, the trials level-2
// pruning dropped, the chip-attributed rejections by 1-based chip and
// reason (nil: none; the event keeps the map, so the caller must not
// change it afterwards) and the trials' integrate times in microseconds.
func WriteTally(sp *Span, t ShardTally, pruned int64, chipRejects map[int]map[string]int64, integrateUS *Histogram) {
	if sp == nil {
		return
	}
	rejects := make(map[string]int64)
	for i, n := range t.Rejects {
		if n != 0 {
			rejects[t.Reasons[i]] = n
		}
	}
	h := &integrateUS.h
	fields := []Field{
		F("shard", t.Shard), F("trials", t.Trials), F("feasible", t.Feasible), F("pruned", pruned),
		F("rejects", rejects), F("integrateCount", h.count), F("integrateSumUS", h.sum), F("integrateMaxUS", h.max),
	}
	if chipRejects != nil {
		fields = append(fields, F("chipRejects", chipRejects))
	}
	sp.Point("tally", fields...)
}

// addTally folds one "tally" point, written at tns; its integrate times
// become the "integrate" stage row.
func (r *Report) addTally(tns int64, f map[string]any) {
	num := func(key string) float64 { v, _ := f[key].(float64); return v }
	m := tallyMark{tns, int(num("trials")), int(num("feasible"))}
	r.tallies = append(r.tallies, m)
	r.Trials += m.trials
	r.Feasible += m.feasible
	r.Pruned += int(num("pruned"))
	addCounts(r.Reasons, f["rejects"])
	chips, _ := f["chipRejects"].(map[string]any)
	for key, rejects := range chips {
		if chip, err := strconv.Atoi(key); err == nil && chip > 0 {
			if r.ChipReasons[chip] == nil {
				r.ChipReasons[chip] = make(map[string]int)
			}
			addCounts(r.ChipReasons[chip], rejects)
		}
	}
	if n := int(num("integrateCount")); n > 0 {
		r.addStage("integrate", n, int64(num("integrateSumUS")*1e3), int64(num("integrateMaxUS")*1e3))
	}
}

// addCounts adds a decoded JSON object of counts to dst.
func addCounts(dst map[string]int, counts any) {
	m, _ := counts.(map[string]any)
	for k, v := range m {
		n, _ := v.(float64)
		dst[k] += int(n)
	}
}

// fieldInt reads a numeric field of a decoded JSON event, which carries
// every number as a float64.
func fieldInt(fields map[string]any, key string) (int64, bool) {
	v, ok := fields[key].(float64)
	return int64(v), ok
}

// Format renders the report as the human-readable explanation printed by
// `chop explain`: per-stage time breakdown, trial totals and the
// rejection-reason histograms (overall and per chip).
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d events\n\n", r.Events)

	if len(r.Stages) > 0 {
		b.WriteString("time breakdown per stage:\n")
		fmt.Fprintf(&b, "  %-20s %8s %12s %12s %12s\n", "stage", "count", "total", "avg", "max")
		totals := make(map[string]int64, len(r.Stages))
		for k, st := range r.Stages {
			totals[k] = st.TotalNS
		}
		for _, rc := range sortedCounts(totals) {
			st := r.Stages[rc.k]
			fmt.Fprintf(&b, "  %-20s %8d %12s %12s %12s\n", rc.k, st.Count,
				fmtDur(st.TotalNS), fmtDur(st.TotalNS/int64(max(st.Count, 1))), fmtDur(st.MaxNS))
		}
		b.WriteString("\n")
	}

	if len(r.Partitions) > 0 {
		b.WriteString("BAD predictions kept per partition:\n")
		parts := make([]int, 0, len(r.Partitions))
		for pi := range r.Partitions {
			parts = append(parts, pi)
		}
		sort.Ints(parts)
		for _, pi := range parts {
			fmt.Fprintf(&b, "  partition %d: %d designs\n", pi, r.Partitions[pi])
		}
		b.WriteString("\n")
	}

	rejected := r.Trials - r.Feasible
	fmt.Fprintf(&b, "trials: %d examined, %d feasible, %d rejected\n",
		r.Trials, r.Feasible, rejected)
	if r.Serializations > 0 {
		fmt.Fprintf(&b, "serialization steps (Figure 5): %d\n", r.Serializations)
	}
	if r.Pruned > 0 {
		fmt.Fprintf(&b, "pruned (level 2, infeasible dropped): %d\n", r.Pruned)
	}

	if len(r.Reasons) > 0 {
		b.WriteString("\nrejection reasons:\n")
		for _, rc := range sortedCounts(r.Reasons) {
			pct := 0.0
			if rejected > 0 {
				pct = 100 * float64(rc.n) / float64(rejected)
			}
			fmt.Fprintf(&b, "  %-20s %8d  (%.1f%%)\n", rc.k, rc.n, pct)
		}
	}
	if len(r.ChipReasons) > 0 {
		b.WriteString("\nrejection reasons per chip:\n")
		chips := make([]int, 0, len(r.ChipReasons))
		for c := range r.ChipReasons {
			chips = append(chips, c)
		}
		sort.Ints(chips)
		for _, c := range chips {
			fmt.Fprintf(&b, "  chip %d:\n", c)
			for _, rc := range sortedCounts(r.ChipReasons[c]) {
				fmt.Fprintf(&b, "    %-18s %8d\n", rc.k, rc.n)
			}
		}
	}
	return b.String()
}

// FormatStats renders the telemetry view of a recorded trace: the same
// rate/throughput report the live /stats endpoints serve, reconstructed
// offline from tally-point timestamps. Printed by `chop explain -stats`.
func (r *Report) FormatStats() string {
	var b strings.Builder
	span, rate := r.span()
	fmt.Fprintf(&b, "trace: %d events over %s\n", r.Events, fmtDur(span))
	fmt.Fprintf(&b, "trials: %d examined, %d feasible, %.0f trials/s avg\n",
		r.Trials, r.Feasible, rate)

	if len(r.PhaseNS) > 0 {
		b.WriteString("\nphase attribution (cumulative over the trace's searches):\n")
		fmt.Fprintf(&b, "  %-14s %12s %8s\n", "phase", "total", "share")
		var attributed int64
		for _, ns := range r.PhaseNS {
			attributed += ns
		}
		for _, rc := range sortedCounts(r.PhaseNS) {
			pct := 0.0
			if attributed > 0 {
				pct = 100 * float64(rc.n) / float64(attributed)
			}
			fmt.Fprintf(&b, "  %-14s %12s %7.1f%%\n", rc.k, fmtDur(rc.n), pct)
		}
		if r.PhaseTrialNS > 0 {
			// Coverage counts only the in-trial phases, matching
			// PhaseSnapshot.CoveragePct (predict and checkpoint run outside
			// the per-trial bracket).
			inTrial := r.PhaseNS[PhaseSchedule.String()] +
				r.PhaseNS[PhaseXfer.String()] + r.PhaseNS[PhaseIntegrate.String()]
			fmt.Fprintf(&b, "  trial coverage: %.1f%% of %s measured trial time (%d trials)\n",
				100*float64(inTrial)/float64(r.PhaseTrialNS), fmtDur(r.PhaseTrialNS), r.PhaseTrials)
		}
	}

	if len(r.Runs) > 0 {
		b.WriteString("\nper run:\n")
		fmt.Fprintf(&b, "  %-24s %8s %10s %10s %12s\n", "run", "events", "trials", "feasible", "trials/s")
		ids := make([]string, 0, len(r.Runs))
		for id := range r.Runs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			sub := r.Runs[id]
			_, subRate := sub.span()
			fmt.Fprintf(&b, "  %-24s %8d %10d %10d %12.0f\n",
				id, sub.Events, sub.Trials, sub.Feasible, subRate)
		}
	}

	if len(r.tallies) > 0 {
		b.WriteString("\ntrial rate timeline (trials per second of trace time):\n")
		type bucket struct{ trials, feasible int }
		buckets := make(map[int64]*bucket)
		var offs []int64
		peak := 1
		for _, m := range r.tallies {
			s := (m.tns - r.epochNS) / 1e9
			tb := buckets[s]
			if tb == nil {
				tb = &bucket{}
				buckets[s] = tb
				offs = append(offs, s)
			}
			tb.trials += m.trials
			tb.feasible += m.feasible
			peak = max(peak, tb.trials)
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		const barWidth = 40
		for _, s := range offs {
			tb := buckets[s]
			n := max(tb.trials*barWidth/peak, 1)
			fmt.Fprintf(&b, "  %4ds %-*s %8d trials %6d feasible\n",
				s, barWidth, strings.Repeat("#", n), tb.trials, tb.feasible)
		}
	}
	return b.String()
}

// span returns the time the report's events cover and the trial rate
// over it.
func (r *Report) span() (ns int64, trialsPerSec float64) {
	if r.FirstTNS < 0 {
		return 0, 0
	}
	if ns = r.LastTNS - r.FirstTNS; ns > 0 {
		trialsPerSec = float64(r.Trials) / (float64(ns) / 1e9)
	}
	return ns, trialsPerSec
}

type kc struct {
	k string
	n int64
}

// sortedCounts lists m's entries by descending count, then by key.
func sortedCounts[N int | int64](m map[string]N) []kc {
	out := make([]kc, 0, len(m))
	for k, n := range m {
		out = append(out, kc{k, int64(n)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].k < out[j].k
	})
	return out
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
