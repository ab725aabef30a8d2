package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Stitching: merge the JSONL trace files of N processes into per-trace
// span trees. Each process's tracer stamps every event with a trace ID, a
// globally-unique span ID, its parent's span ID (which may live in a
// different process) and a wall-clock epoch anchor; stitching is then a
// join — group events by trace ID, pair begin/end by span ID, convert
// relative timestamps to absolute via the epoch anchors, and hang each
// span under its parent wherever that parent was recorded. Files written
// before the identity fields existed still stitch: span IDs are
// synthesized from (source, run, local span ID), which keeps one process
// self-consistent but cannot cross process boundaries.

// StitchSource is one input trace: a name (shown as the span's process /
// service boundary — usually the file name) and its JSONL content.
type StitchSource struct {
	Name string
	R    io.Reader
}

// StitchSpan is one reconstructed span in a stitched tree.
type StitchSpan struct {
	TraceID string `json:"trace"`
	SID     string `json:"sid"`
	PSID    string `json:"psid,omitempty"`
	Name    string `json:"name"`
	// Run is the event's run tag; Source names the input file (the process
	// boundary the span executed in).
	Run    string `json:"run,omitempty"`
	Source string `json:"source"`
	// StartNS/EndNS are absolute wall-clock nanoseconds (Unix epoch) when
	// the trace carries epoch anchors, tracer-relative otherwise.
	StartNS int64 `json:"startNS"`
	EndNS   int64 `json:"endNS"`
	DurNS   int64 `json:"durNS"`
	// Points counts the instantaneous events recorded inside the span.
	Points int `json:"points,omitempty"`
	// Incomplete marks a span whose end event never arrived (the process
	// died or the ring dropped it); its EndNS is the last event seen.
	Incomplete bool           `json:"incomplete,omitempty"`
	Fields     map[string]any `json:"f,omitempty"`

	Children []*StitchSpan `json:"children,omitempty"`

	parentRef string // resolved parent key (sid or synthesized)
}

// StitchTrace is one distributed trace reassembled from every source that
// recorded a piece of it.
type StitchTrace struct {
	// TraceID is the W3C trace ID, or "" for events recorded without one.
	TraceID string `json:"trace"`
	// Roots are the spans with no parent reference, children sorted by
	// start time. A fully-stitched request has exactly one root.
	Roots []*StitchSpan `json:"roots"`
	// Orphans are spans whose parent span ID was not found in any source:
	// the parent process's file is missing, or its ring dropped the span.
	Orphans []*StitchSpan `json:"orphans,omitempty"`
	// Sources lists the input names that contributed spans, sorted.
	Sources []string `json:"sources"`
	Spans   int      `json:"spans"`
	Points  int      `json:"points"`
	// StartNS/EndNS bound the trace.
	StartNS int64 `json:"startNS"`
	EndNS   int64 `json:"endNS"`
}

// Stitch reads every source's JSONL trace and reassembles the distributed
// traces they jointly recorded, sorted by start time. An unreadable or
// syntactically broken source fails the whole stitch (partial merges lie).
func Stitch(sources []StitchSource) ([]*StitchTrace, error) {
	spans := make(map[spanKey]*StitchSpan)
	var order []spanKey
	pointsMissed := make(map[string]int) // trace ID -> points with no span

	for si, src := range sources {
		name := src.Name
		if name == "" {
			name = fmt.Sprintf("source-%d", si+1)
		}
		err := readEvents(src.R, func(ev Event) {
			ref := spanRef(name, ev)
			if ref == "" {
				return // not attached to any span (shouldn't happen)
			}
			key := spanKey{trace: ev.Trace, ref: ref}
			sp := spans[key]
			abs := ev.Time()
			switch ev.Kind {
			case KindBegin:
				if sp == nil {
					sp = &StitchSpan{TraceID: ev.Trace, SID: ref}
					spans[key] = sp
					order = append(order, key)
				}
				sp.Name = ev.Name
				sp.Run = ev.Run
				sp.Source = name
				sp.StartNS = abs
				sp.EndNS = abs // until the end event arrives
				sp.Incomplete = true
				sp.parentRef = ev.PSID
				if sp.parentRef == "" && ev.Parent != 0 {
					sp.parentRef = localRef(name, ev.Run, ev.Parent)
				}
				if len(ev.Fields) > 0 {
					sp.Fields = ev.Fields
				}
			case KindEnd:
				if sp == nil {
					// End without begin (ring dropped it): reconstruct what
					// we can from the duration.
					sp = &StitchSpan{
						TraceID: ev.Trace, SID: ref, Name: ev.Name,
						Run: ev.Run, Source: name, StartNS: abs - ev.DurNS,
					}
					spans[key] = sp
					order = append(order, key)
				}
				sp.EndNS = abs
				sp.DurNS = ev.DurNS
				sp.Incomplete = false
				for k, v := range ev.Fields {
					if sp.Fields == nil {
						sp.Fields = make(map[string]any, len(ev.Fields))
					}
					sp.Fields[k] = v
				}
			case KindPoint:
				if sp == nil {
					pointsMissed[ev.Trace]++
					return
				}
				sp.Points++
				if abs > sp.EndNS && sp.Incomplete {
					sp.EndNS = abs
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("obs: stitch %s %w", name, err)
		}
	}

	// Assemble per-trace trees in first-seen order, then sort by time.
	traces := make(map[string]*StitchTrace)
	var traceOrder []string
	byRef := make(map[spanKey]*StitchSpan, len(spans))
	for k, sp := range spans {
		byRef[k] = sp
		if sp.Incomplete && sp.DurNS == 0 {
			sp.DurNS = sp.EndNS - sp.StartNS
		}
	}
	for _, k := range order {
		sp := spans[k]
		tr := traces[sp.TraceID]
		if tr == nil {
			tr = &StitchTrace{TraceID: sp.TraceID, StartNS: sp.StartNS, EndNS: sp.EndNS}
			traces[sp.TraceID] = tr
			traceOrder = append(traceOrder, sp.TraceID)
		}
		tr.Spans++
		tr.Points += sp.Points
		if sp.StartNS < tr.StartNS {
			tr.StartNS = sp.StartNS
		}
		if sp.EndNS > tr.EndNS {
			tr.EndNS = sp.EndNS
		}
		switch {
		case sp.parentRef == "":
			tr.Roots = append(tr.Roots, sp)
		default:
			parent := byRef[spanKey{trace: sp.TraceID, ref: sp.parentRef}]
			if parent == nil {
				tr.Orphans = append(tr.Orphans, sp)
			} else {
				parent.Children = append(parent.Children, sp)
			}
		}
	}
	out := make([]*StitchTrace, 0, len(traces))
	for _, id := range traceOrder {
		tr := traces[id]
		tr.Points += pointsMissed[id]
		srcs := make(map[string]bool)
		var walk func(s *StitchSpan)
		walk = func(s *StitchSpan) {
			srcs[s.Source] = true
			sort.Slice(s.Children, func(i, j int) bool {
				if s.Children[i].StartNS != s.Children[j].StartNS {
					return s.Children[i].StartNS < s.Children[j].StartNS
				}
				return s.Children[i].SID < s.Children[j].SID
			})
			for _, c := range s.Children {
				walk(c)
			}
		}
		for _, r := range tr.Roots {
			walk(r)
		}
		for _, o := range tr.Orphans {
			walk(o)
		}
		for s := range srcs {
			tr.Sources = append(tr.Sources, s)
		}
		sort.Strings(tr.Sources)
		sort.Slice(tr.Roots, func(i, j int) bool { return tr.Roots[i].StartNS < tr.Roots[j].StartNS })
		sort.Slice(tr.Orphans, func(i, j int) bool { return tr.Orphans[i].StartNS < tr.Orphans[j].StartNS })
		out = append(out, tr)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out, nil
}

// spanKey identifies a span across trace sources: its trace ID and its
// spanRef.
type spanKey struct{ trace, ref string }

// spanRef names the span an event belongs to: its globally unique SID,
// else a (source, run, local span ID) synthesis that is consistent within
// one tracer; "" when the event names no span.
func spanRef(source string, ev Event) string {
	if ev.SID != "" {
		return ev.SID
	}
	if ev.Span != 0 {
		return localRef(source, ev.Run, ev.Span)
	}
	return ""
}

func localRef(source, run string, id int64) string {
	return fmt.Sprintf("%s\x00%s\x00%d", source, run, id)
}

// CriticalSegment is one hop of a trace's critical path: NS nanoseconds
// attributed to span Name in process Source.
type CriticalSegment struct {
	Source string `json:"source"`
	Name   string `json:"name"`
	NS     int64  `json:"ns"`
}

// CriticalPath walks the trace backward from the latest-finishing root —
// at every instant following the child span that was still running,
// attributing uncovered time to the enclosing span — and aggregates the
// result per (source, name). The Source sums answer "which process
// bounded this request": time attributed across a service boundary is
// time the caller spent blocked on the callee.
func (t *StitchTrace) CriticalPath() []CriticalSegment {
	if len(t.Roots) == 0 {
		return nil
	}
	root := t.Roots[0]
	for _, r := range t.Roots[1:] {
		if r.EndNS > root.EndNS {
			root = r
		}
	}
	type segKey struct{ source, name string }
	acc := make(map[segKey]int64)
	var keys []segKey
	add := func(s *StitchSpan, ns int64) {
		if ns <= 0 {
			return
		}
		k := segKey{s.Source, s.Name}
		if _, seen := acc[k]; !seen {
			keys = append(keys, k)
		}
		acc[k] += ns
	}
	// walk attributes the window [s.StartNS, windowEnd] — working from the
	// window's end backward, descend into the child that was running at
	// the cursor; gaps no child covers are the span's own time.
	var walk func(s *StitchSpan, windowEnd int64)
	walk = func(s *StitchSpan, windowEnd int64) {
		cursor := windowEnd
		kids := append([]*StitchSpan(nil), s.Children...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].EndNS > kids[j].EndNS })
		for _, c := range kids {
			if c.StartNS >= cursor {
				continue // outside the remaining window
			}
			end := c.EndNS
			if end > cursor {
				end = cursor
			}
			add(s, cursor-end) // the gap after this child is self time
			walk(c, end)
			cursor = c.StartNS
			if cursor <= s.StartNS {
				break
			}
		}
		if cursor > s.StartNS {
			add(s, cursor-s.StartNS)
		}
	}
	walk(root, root.EndNS)
	out := make([]CriticalSegment, 0, len(keys))
	for _, k := range keys {
		out = append(out, CriticalSegment{Source: k.source, Name: k.name, NS: acc[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].NS != out[j].NS {
			return out[i].NS > out[j].NS
		}
		return out[i].Source+out[i].Name < out[j].Source+out[j].Name
	})
	return out
}

// FormatStitch renders stitched traces as the human-readable waterfall
// `chop trace` prints: per trace, the span tree with time bars, the
// critical-path attribution per service boundary, and the orphan list.
func FormatStitch(traces []*StitchTrace) string {
	var b strings.Builder
	for ti, tr := range traces {
		if ti > 0 {
			b.WriteString("\n")
		}
		id := tr.TraceID
		if id == "" {
			id = "(untraced)"
		}
		fmt.Fprintf(&b, "trace %s: %d spans, %d points, %s across %s\n",
			id, tr.Spans, tr.Points, fmtDur(tr.EndNS-tr.StartNS),
			strings.Join(tr.Sources, ", "))

		const barWidth = 32
		total := tr.EndNS - tr.StartNS
		var walk func(s *StitchSpan, depth int)
		walk = func(s *StitchSpan, depth int) {
			bar := waterfallBar(s.StartNS-tr.StartNS, s.DurNS, total, barWidth)
			label := fmt.Sprintf("%s%s", strings.Repeat("  ", depth), s.Name)
			note := ""
			if s.Points > 0 {
				note = fmt.Sprintf("  (%d points)", s.Points)
			}
			if s.Incomplete {
				note += "  [no end event]"
			}
			fmt.Fprintf(&b, "  %-34s %-14s |%s| %12s%s\n",
				truncate(label, 34), truncate(s.Source, 14), bar, fmtDur(s.DurNS), note)
			for _, c := range s.Children {
				walk(c, depth+1)
			}
		}
		for _, r := range tr.Roots {
			walk(r, 0)
		}

		if cp := tr.CriticalPath(); len(cp) > 0 {
			var cpTotal int64
			for _, seg := range cp {
				cpTotal += seg.NS
			}
			b.WriteString("\n  critical path (per service boundary):\n")
			bySource := make(map[string]int64)
			var srcOrder []string
			for _, seg := range cp {
				if _, ok := bySource[seg.Source]; !ok {
					srcOrder = append(srcOrder, seg.Source)
				}
				bySource[seg.Source] += seg.NS
				pct := 0.0
				if cpTotal > 0 {
					pct = 100 * float64(seg.NS) / float64(cpTotal)
				}
				fmt.Fprintf(&b, "    %-14s %-24s %12s %6.1f%%\n",
					truncate(seg.Source, 14), truncate(seg.Name, 24), fmtDur(seg.NS), pct)
			}
			if len(srcOrder) > 1 {
				b.WriteString("  per source:\n")
				sort.Slice(srcOrder, func(i, j int) bool { return bySource[srcOrder[i]] > bySource[srcOrder[j]] })
				for _, src := range srcOrder {
					pct := 0.0
					if cpTotal > 0 {
						pct = 100 * float64(bySource[src]) / float64(cpTotal)
					}
					fmt.Fprintf(&b, "    %-14s %12s %6.1f%%\n", truncate(src, 14), fmtDur(bySource[src]), pct)
				}
			}
		}

		if len(tr.Orphans) > 0 {
			fmt.Fprintf(&b, "\n  ORPHANS (%d spans reference parents no source recorded):\n", len(tr.Orphans))
			for _, o := range tr.Orphans {
				fmt.Fprintf(&b, "    %-24s %-14s parent %s missing\n",
					truncate(o.Name, 24), truncate(o.Source, 14), o.parentRef)
			}
		}
	}
	return b.String()
}

// OrphanCount sums orphan spans across traces (the trace-smoke gate).
func OrphanCount(traces []*StitchTrace) int {
	n := 0
	for _, tr := range traces {
		n += len(tr.Orphans)
	}
	return n
}

func waterfallBar(off, dur, total int64, width int) string {
	if total <= 0 {
		return strings.Repeat(" ", width)
	}
	lo := int(off * int64(width) / total)
	hi := int((off + dur) * int64(width) / total)
	if lo >= width {
		lo = width - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	if hi > width {
		hi = width
	}
	return strings.Repeat(" ", lo) + strings.Repeat("=", hi-lo) + strings.Repeat(" ", width-hi)
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	if n <= 1 {
		return s[:n]
	}
	return s[:n-1] + "…"
}
