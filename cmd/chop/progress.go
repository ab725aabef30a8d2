package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"chop/internal/obs"
)

const sampleInterval = 500 * time.Millisecond

// sampler is a CLI run's one live record. Every sampleInterval, and once
// more at finish, it takes one snapshot of the run's RunStats, prints it as
// the -progress line when progress is set and appends it as one JSON line
// to out (-stats-out) when that is set: the document GET
// /api/v1/runs/{id}/stats serves under "stats", which chop top -f draws.
// The snapshot's phases block carries the prediction counts, so neither
// consumer needs a tracer. RunStats resets per search, so a multi-search
// run (exp1, exp2) reports the search in flight.
type sampler struct {
	stats         *obs.RunStats
	progress, out io.Writer // either may be nil
	err           error     // first write error on out; later samples skip it
	start         time.Time
	last          time.Time // previous line, the trial-rate window start
	lastTrials    int64
	stop, done    chan struct{}
}

// startSampler begins sampling stats to the given consumers.
func startSampler(stats *obs.RunStats, progress, out io.Writer) *sampler {
	now := time.Now()
	s := &sampler{stats: stats, progress: progress, out: out, start: now, last: now,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleInterval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				s.sample(now)
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the ticker, takes the final sample, so a -stats-out series
// always ends with the run's terminal fold, and returns the first write
// error on out.
func (s *sampler) finish() error {
	close(s.stop)
	<-s.done
	s.sample(time.Now())
	return s.err
}

// sample hands one snapshot to both consumers.
func (s *sampler) sample(now time.Time) {
	sn := s.stats.Snapshot()
	if s.progress != nil {
		fmt.Fprint(s.progress, s.line(sn, now))
	}
	if s.out != nil && s.err == nil {
		line, err := json.Marshal(sn)
		if err == nil {
			_, err = s.out.Write(append(line, '\n'))
		}
		s.err = err
	}
}

// line renders the progress line for sn at now: the stage
// (PredictPartitions until a search starts, then Search), completed BAD
// predictions, trials against the planned total when known, feasible
// trials and the trial rate since the previous line.
func (s *sampler) line(sn obs.RunStatsSnapshot, now time.Time) string {
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
	if dt := now.Sub(s.last).Seconds(); dt > 0 && sn.Trials > s.lastTrials {
		rate = fmt.Sprintf(" (%.0f trials/s)", float64(sn.Trials-s.lastTrials)/dt)
	}
	s.last, s.lastTrials = now, sn.Trials
	return fmt.Sprintf("chop: %-17s predictions=%d trials=%s feasible=%d%s elapsed=%s\n",
		stage, preds, trials, sn.Feasible, rate, now.Sub(s.start).Round(time.Millisecond))
}
