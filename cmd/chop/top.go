package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"chop/internal/obs"
	"chop/internal/serve"
)

// top is the live terminal dashboard over the run telemetry plane. Every
// run view reads an obs.RunStatsSnapshot, from a server or from a file:
//
//	chop top -addr http://host:8080            server overview (/api/v1/stats)
//	chop top -addr http://host:8080 -run <id>  one run's shard table (/api/v1/runs/{id}/stats)
//	chop top -f stats.jsonl                    tail a CLI run's -stats-out snapshots
//
// The display is plain ANSI — a home-and-clear escape between frames, no
// terminal library — so it works in any terminal and degrades to sequential
// frames in a pipe. -once renders a single frame without clearing and
// exits, which is also what the tests drive.
func top(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	addr := fs.String("addr", "http://localhost:8080", "base URL of a chop serve instance")
	runID := fs.String("run", "", "watch one run's shard table instead of the server overview")
	file := fs.String("f", "", "tail a -stats-out JSONL file instead of polling a server")
	interval := fs.Float64("interval", 1, "refresh interval in seconds")
	once := fs.Bool("once", false, "render a single frame and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file != "" && *runID != "" {
		return fmt.Errorf("top: -f and -run are mutually exclusive")
	}
	period := time.Duration(*interval * float64(time.Second))
	if period < 100*time.Millisecond {
		period = 100 * time.Millisecond
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *file != "" {
		return topFile(ctx, *file, period, *once)
	}
	base := strings.TrimRight(*addr, "/")
	// Accept a bare host:port the way curl does; url.Parse would read the
	// port as a scheme.
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return topServer(ctx, base, *runID, period, *once)
}

// clearScreen is the between-frame reset: cursor home, then erase to the
// end of the screen (softer than a full clear — no flicker on repaint).
const clearScreen = "\x1b[H\x1b[J"

// topServer polls a serve instance and repaints. Watching a single run ends
// on its terminal state; the server overview runs until interrupted.
func topServer(ctx context.Context, addr, runID string, period time.Duration, once bool) error {
	for {
		var frame string
		var terminal bool
		if runID != "" {
			var p serve.RunStatsPayload
			if err := fetchJSON(ctx, addr+"/api/v1/runs/"+runID+"/stats", &p); err != nil {
				return err
			}
			frame = renderRunFrame(p)
			terminal = p.Run.State.Terminal()
		} else {
			var st serve.ServerStats
			if err := fetchJSON(ctx, addr+"/api/v1/stats", &st); err != nil {
				return err
			}
			frame = renderServerFrame(addr, st)
		}
		if once {
			fmt.Print(frame)
			return nil
		}
		fmt.Print(clearScreen + frame)
		if terminal {
			return nil
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-time.After(period):
		}
	}
}

// topFile renders the newest snapshot of a -stats-out JSONL file and keeps
// tailing it for appended ones (the producing run may still be writing).
func topFile(ctx context.Context, path string, period time.Duration, once bool) error {
	tail := statsTail{path: path}
	for {
		fresh, err := tail.read()
		if err != nil {
			return err
		}
		if fresh {
			frame := fmt.Sprintf("chop top — %s — %s, sample %d\n\n", path, tail.last.Label, tail.n) +
				renderSnapshot(tail.last)
			if once {
				fmt.Print(frame)
				return nil
			}
			fmt.Print(clearScreen + frame)
		} else if once {
			return fmt.Errorf("top: %s holds no stats records yet", path)
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-time.After(period):
		}
	}
}

// statsTail reads a -stats-out file incrementally: each read decodes only
// the complete lines appended since the previous one.
type statsTail struct {
	path string
	off  int64                // byte offset after the last complete line
	last obs.RunStatsSnapshot // newest snapshot decoded
	n    int                  // snapshots decoded since offset 0
}

// read decodes the lines appended since the last read and reports whether
// any held a snapshot. A trailing partial line (a sample being written
// right now) is left for the next read; a file shorter than the offset (a
// new run truncated it) is read again from the start.
func (t *statsTail) read() (bool, error) {
	f, err := os.Open(t.path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return false, err
	}
	if fi.Size() < t.off {
		t.off, t.n = 0, 0
	}
	br := bufio.NewReader(io.NewSectionReader(f, t.off, fi.Size()-t.off))
	fresh := false
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			return fresh, nil
		}
		if err != nil {
			return fresh, err
		}
		t.off += int64(len(line))
		var sn obs.RunStatsSnapshot
		if json.Unmarshal(line, &sn) == nil {
			t.last, t.n, fresh = sn, t.n+1, true
		}
	}
}

// fetchJSON GETs a URL and decodes the JSON body.
func fetchJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("top: GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// renderServerFrame lays out the server overview: supervision state, cache
// and resilience counters, then one aggregate line per active run.
func renderServerFrame(addr string, st serve.ServerStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chop top — %s — %s\n\n", addr, st.Time.Format(time.TimeOnly))
	fmt.Fprintf(&b, "workers  %d/%d busy (%.0f%%)   queue %d   http %d requests\n",
		st.RunsInFlight, st.MaxConcurrent, st.Occupancy*100, st.QueueDepth, st.HTTPRequests)
	if len(st.Runs) > 0 {
		states := make([]string, 0, len(st.Runs))
		for state := range st.Runs {
			states = append(states, state)
		}
		sort.Strings(states)
		parts := make([]string, 0, len(states))
		for _, state := range states {
			parts = append(parts, fmt.Sprintf("%d %s", st.Runs[state], state))
		}
		fmt.Fprintf(&b, "runs     %s\n", strings.Join(parts, ", "))
	}
	if st.Cache != nil {
		fmt.Fprintf(&b, "cache    %d hits / %d misses (%.1f%% hit)\n",
			st.Cache.Hits, st.Cache.Misses, st.Cache.HitRate*100)
	}
	if len(st.Resilience) > 0 {
		keys := make([]string, 0, len(st.Resilience))
		for k := range st.Resilience {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s=%d", k, st.Resilience[k]))
		}
		fmt.Fprintf(&b, "resil    %s\n", strings.Join(parts, " "))
	}
	if len(st.Active) == 0 {
		b.WriteString("\nno active searches\n")
		return b.String()
	}
	fmt.Fprintf(&b, "\nactive searches (%d):\n", len(st.Active))
	for _, sn := range st.Active {
		fmt.Fprintf(&b, "  %-12s %s\n", sn.Label, summaryLine(sn))
	}
	return b.String()
}

// renderRunFrame lays out one run: status envelope, aggregate progress,
// shard table and slow-trial exemplars.
func renderRunFrame(p serve.RunStatsPayload) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s — %s %s\n\n", p.Run.ID, p.Run.Kind, p.Run.State)
	b.WriteString(renderSnapshot(p.Stats))
	return b.String()
}

// renderSnapshot is the shared run view: aggregate line, progress bar,
// cache/checkpoint lines, per-shard table, slow trials.
func renderSnapshot(sn obs.RunStatsSnapshot) string {
	var b strings.Builder
	if !sn.Started {
		b.WriteString("search not started\n")
		return b.String()
	}
	fmt.Fprintf(&b, "search   %s\n", summaryLine(sn))
	if sn.Total > 0 {
		fmt.Fprintf(&b, "progress %s\n", bar(sn.Trials, sn.Total, 40))
	}
	if sn.CacheHits+sn.CacheMisses > 0 {
		fmt.Fprintf(&b, "cache    %d hits / %d misses (%.1f%% hit)\n",
			sn.CacheHits, sn.CacheMisses, sn.CacheHitRate*100)
	}
	if sn.CheckpointSaves > 0 {
		fmt.Fprintf(&b, "ckpt     %d saves, lag %d shard(s), last %.1fs ago\n",
			sn.CheckpointSaves, sn.CheckpointLag, sn.CheckpointAgeSec)
	}
	if sn.Phases != nil && len(sn.Phases.Phases) > 0 {
		parts := make([]string, 0, len(sn.Phases.Phases))
		for _, p := range sn.Phases.Phases {
			parts = append(parts, fmt.Sprintf("%s %.0f%%", p.Phase, p.TimePct))
		}
		fmt.Fprintf(&b, "phases   %s (%.0f%% of trial time attributed)\n",
			strings.Join(parts, "  "), sn.Phases.CoveragePct)
	}
	if len(sn.ShardTable) > 0 {
		fmt.Fprintf(&b, "\n  %5s  %-8s %12s %10s %8s  %s\n",
			"shard", "state", "trials", "rate/s", "eta", "")
		for _, sh := range sn.ShardTable {
			trials := fmt.Sprintf("%d", sh.Trials)
			if sh.Total > 0 {
				trials = fmt.Sprintf("%d/%d", sh.Trials, sh.Total)
			}
			rate, eta := "", ""
			if sh.TrialsPerSec > 0 {
				rate = fmt.Sprintf("%.0f", sh.TrialsPerSec)
			}
			if sh.ETASec > 0 {
				eta = fmtETA(sh.ETASec)
			}
			pb := ""
			if sh.Total > 0 {
				pb = bar(sh.Trials, sh.Total, 20)
			}
			fmt.Fprintf(&b, "  %5d  %-8s %12s %10s %8s  %s\n",
				sh.Index, sh.State, trials, rate, eta, pb)
		}
	}
	if len(sn.SlowTrials) > 0 {
		b.WriteString("\nslowest trials:\n")
		for _, e := range sn.SlowTrials {
			verdict := "feasible"
			if !e.Feasible {
				verdict = "rejected"
				if e.Reason != "" {
					verdict += " (" + e.Reason + ")"
				}
			}
			fmt.Fprintf(&b, "  %9.0f µs  shard %d  ii=%d  %s\n", e.DurUS, e.Shard, e.II, verdict)
		}
	}
	return b.String()
}

// summaryLine compresses a snapshot's aggregate state into one line.
func summaryLine(sn obs.RunStatsSnapshot) string {
	var b strings.Builder
	if sn.Total > 0 {
		fmt.Fprintf(&b, "%d/%d trials", sn.Trials, sn.Total)
	} else {
		fmt.Fprintf(&b, "%d trials", sn.Trials)
	}
	fmt.Fprintf(&b, ", %d feasible", sn.Feasible)
	if sn.TrialsPerSec > 0 {
		fmt.Fprintf(&b, ", %.0f trials/s", sn.TrialsPerSec)
	}
	if sn.ETASec > 0 {
		fmt.Fprintf(&b, ", eta %s", fmtETA(sn.ETASec))
	}
	fmt.Fprintf(&b, ", shards %d/%d done", sn.ShardsDone, sn.Shards)
	if sn.Done() {
		b.WriteString(" [complete]")
	}
	return b.String()
}

// bar renders a [####----] progress bar with a percentage.
func bar(done, total int64, width int) string {
	if total <= 0 {
		return ""
	}
	frac := float64(done) / float64(total)
	if frac > 1 {
		frac = 1
	}
	fill := int(frac * float64(width))
	return fmt.Sprintf("[%s%s] %3.0f%%",
		strings.Repeat("#", fill), strings.Repeat("-", width-fill), frac*100)
}

// fmtETA renders an ETA compactly: sub-minute in seconds, then m/h.
func fmtETA(secs float64) string {
	switch {
	case secs < 60:
		return fmt.Sprintf("%.1fs", secs)
	case secs < 3600:
		return fmt.Sprintf("%.1fm", secs/60)
	default:
		return fmt.Sprintf("%.1fh", secs/3600)
	}
}
