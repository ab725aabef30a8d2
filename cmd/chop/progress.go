package main

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"chop/internal/obs"
)

const progressInterval = 500 * time.Millisecond

// progress prints the -progress lines, one every progressInterval and a
// last one at finish, from one snapshot of the run's RunStats each (the
// fold -stats-out samples; no tracer), whose phases block carries the
// prediction counts. RunStats resets per search, so a multi-search run
// (exp1, exp2) reports the search in flight.
type progress struct {
	w          io.Writer
	stats      *obs.RunStats
	start      time.Time
	last       time.Time // previous line, the trial-rate window start
	lastTrials int64
	stop, done chan struct{}
}

// startProgress begins printing progress lines for the run to w.
func startProgress(w io.Writer, stats *obs.RunStats) *progress {
	now := time.Now()
	p := &progress{w: w, stats: stats, start: now, last: now,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(progressInterval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				fmt.Fprint(p.w, p.line(now))
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// finish stops the ticker and prints the final line.
func (p *progress) finish() {
	close(p.stop)
	<-p.done
	fmt.Fprint(p.w, p.line(time.Now()))
}

// line renders the progress line at now: the stage (PredictPartitions
// until a search starts, then Search), completed BAD predictions, trials
// against the planned total when known, feasible trials and the trial
// rate since the previous line.
func (p *progress) line(now time.Time) string {
	sn := p.stats.Snapshot()
	stage := "PredictPartitions"
	if sn.Started {
		stage = "Search"
	}
	// A prediction opens a cache-lookup bracket when a predictor cache is
	// attached, and a predict bracket on a miss or without a cache.
	var preds int64
	if sn.Phases != nil {
		for _, st := range sn.Phases.Phases {
			if st.Phase == obs.PhasePredict.String() || st.Phase == obs.PhaseCacheLookup.String() {
				preds = max(preds, st.Count)
			}
		}
	}
	trials := strconv.FormatInt(sn.Trials, 10)
	if sn.Total > 0 {
		trials += "/" + strconv.FormatInt(sn.Total, 10)
	}
	rate := ""
	if dt := now.Sub(p.last).Seconds(); dt > 0 && sn.Trials > p.lastTrials {
		rate = fmt.Sprintf(" (%.0f trials/s)", float64(sn.Trials-p.lastTrials)/dt)
	}
	p.last, p.lastTrials = now, sn.Trials
	return fmt.Sprintf("chop: %-17s predictions=%d trials=%s feasible=%d%s elapsed=%s\n",
		stage, preds, trials, sn.Feasible, rate, now.Sub(p.start).Round(time.Millisecond))
}
