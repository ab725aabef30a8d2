package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// StatsRecord is one sample of the telemetry time series: the absolute
// metrics snapshot at T plus the counter deltas since the previous sample,
// with the live run-stats fold riding along when a RunStats is attached.
// Records serialize one-per-line (JSONL) through a Snapshotter writer and
// are what `chop top -f` tails.
type StatsRecord struct {
	// T is the sample's wall-clock time, UnixMilli.
	T int64 `json:"t"`
	// Seq numbers samples from 1 within one Snapshotter.
	Seq int64 `json:"seq"`
	// IntervalSec is the measured time since the previous sample (0 for
	// the first).
	IntervalSec float64 `json:"intervalSec,omitempty"`
	// Counters holds absolute counter values; CounterDeltas only the
	// counters that moved since the previous sample, as deltas.
	Counters      map[string]int64 `json:"counters,omitempty"`
	CounterDeltas map[string]int64 `json:"counterDeltas,omitempty"`
	// Gauges holds the current gauge values.
	Gauges map[string]float64 `json:"gauges,omitempty"`
	// Histograms holds the current cumulative histogram summaries.
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
	// Run is the attached run's live progress fold, when any.
	Run *RunStatsSnapshot `json:"run,omitempty"`
}

// Snapshotter periodically folds a Metrics registry (and optionally a
// RunStats) into timestamped StatsRecords and appends each as one JSONL
// line to an optional writer (the -stats-out file). Sampling is driven
// either by Run's ticker goroutine or by explicit Tick calls (tests, and
// call sites that already have a cadence).
type Snapshotter struct {
	mu      sync.Mutex
	metrics *Metrics
	stats   *RunStats
	out     io.Writer
	seq     int64
	prev    map[string]int64 // previous counters, for deltas
	prevT   time.Time
	err     error

	stop chan struct{}
	done chan struct{}
}

// SnapshotterOptions parameterizes NewSnapshotter.
type SnapshotterOptions struct {
	// Metrics is the registry to sample (nil: records carry only run
	// stats).
	Metrics *Metrics
	// Stats, when set, embeds the run's live shard fold in every record.
	Stats *RunStats
	// Out, when set, receives each record as one JSONL line. The
	// snapshotter serializes writes itself.
	Out io.Writer
}

// DefaultStatsInterval is the sampling cadence Run uses unless overridden.
const DefaultStatsInterval = time.Second

// NewSnapshotter builds an idle snapshotter; call Tick for manual samples
// or Run to start the periodic goroutine.
func NewSnapshotter(opts SnapshotterOptions) *Snapshotter {
	return &Snapshotter{metrics: opts.Metrics, stats: opts.Stats, out: opts.Out}
}

// Tick takes one sample now and returns it.
func (s *Snapshotter) Tick() StatsRecord {
	if s == nil {
		return StatsRecord{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	snap := s.metrics.Snapshot()
	s.seq++
	rec := StatsRecord{
		T:          now.UnixMilli(),
		Seq:        s.seq,
		Counters:   snap.Counters,
		Gauges:     snap.Gauges,
		Histograms: snap.Histograms,
	}
	if !s.prevT.IsZero() {
		rec.IntervalSec = now.Sub(s.prevT).Seconds()
	}
	if len(snap.Counters) > 0 && s.prev != nil {
		deltas := make(map[string]int64)
		for k, v := range snap.Counters {
			if d := v - s.prev[k]; d != 0 {
				deltas[k] = d
			}
		}
		if len(deltas) > 0 {
			rec.CounterDeltas = deltas
		}
	}
	s.prev = snap.Counters
	s.prevT = now
	if s.stats != nil {
		rs := s.stats.Snapshot()
		rec.Run = &rs
	}
	if s.out != nil && s.err == nil {
		line, err := json.Marshal(rec)
		if err == nil {
			line = append(line, '\n')
			_, err = s.out.Write(line)
		}
		s.err = err
	}
	return rec
}

// Err reports the first JSONL write error, if any.
func (s *Snapshotter) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Run starts the periodic sampler at the given cadence (0 selects
// DefaultStatsInterval). Call Stop to take a final sample and halt; Run on
// an already-running snapshotter is a no-op.
func (s *Snapshotter) Run(interval time.Duration) {
	if s == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultStatsInterval
	}
	s.mu.Lock()
	if s.stop != nil {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stop, s.done = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.Tick()
			}
		}
	}()
}

// Stop halts the periodic sampler (if running) and takes one final sample
// so the series always ends with the run's terminal state.
func (s *Snapshotter) Stop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.Tick()
}
