package core

import (
	"time"

	"chop/internal/obs"
)

// recorder books one search worker's trials into every telemetry plane the
// Config attaches. It counts them in a tally kept in plain fields and
// publishes it with flush: to the trace (one "tally" point), the metrics
// registry (core.* counters, integrate and urgency histograms), the run
// stats (the shard's trial, feasible and per-reason counts and its slowest
// trials) and the phase accounter (trial, schedule and xfer time). Past
// the flush, only serialize writes to the trace. It is the only per-trial
// code that calls into obs.
//
// runShards builds one per worker and points it at each shard the worker
// claims; it is nil when no plane is attached, and every method is a no-op
// on a nil receiver, so a bare search pays a nil check per call site. A
// worker runs one trial at a time, so the in-flight trial's state lives in
// the recorder.
type recorder struct {
	sp      *obs.Span // the Search span; nil when tracing is off
	m       *obs.Metrics
	stats   *obs.RunStats
	ph      *obs.PhaseAccounter
	keepAll bool
	si      int // the claimed shard

	// The trial between begin and end: its interval, start instant and
	// the time its schedule and xfer brackets took.
	l         int
	t0        time.Time
	bracketed time.Duration

	n tally // booked since the last flush
}

// tally is what a recorder has counted since its last flush, all in the
// shard it has claimed.
type tally struct {
	trials, feasible, pruned, serializations int64
	rejects                                  [numReasons]int64
	// chipRejects counts chip-attributed rejections by 1-based chip and
	// reason, only while tracing: only the tally point reads it, and its
	// event keeps the map, so each flush's reset starts a new one.
	chipRejects                              map[int]map[string]int64
	integrateUS, urgencyTasks, urgencyCycles obs.Histogram
	slow                                     obs.SlowTrials
	phases                                   obs.PhaseTally
}

// flushTrials is the trial count at which a recorder publishes its tally
// without waiting for the shard to end, so the metric counters, the run
// stats and the phase block of a long shard keep moving (about 10 ms of
// one-worker Figure 7 trials).
const flushTrials = 4096

// newRecorder returns a worker's recorder, or nil when cfg attaches no
// telemetry plane and sp is nil.
func newRecorder(cfg Config, sp *obs.Span) *recorder {
	if sp == nil && cfg.Metrics == nil && cfg.Stats == nil && cfg.Phases == nil {
		return nil
	}
	return &recorder{sp: sp, m: cfg.Metrics, stats: cfg.Stats, ph: cfg.Phases, keepAll: cfg.KeepAll}
}

// reasonName and rejectMetric name each Reason and its core.reject.<reason>
// counter, built once so booking a rejection concatenates nothing.
var reasonName, rejectMetric = func() (names, metrics [numReasons]string) {
	for r := range names {
		names[r] = Reason(r).String()
		metrics[r] = "core.reject." + names[r]
	}
	return names, metrics
}()

// start points the recorder at shard si and marks the shard claimed with
// its planned trial count (0: unknown); done marks it complete.
func (r *recorder) start(si int, total int64) {
	if r != nil {
		r.si = si
		r.stats.StartShard(si, total)
	}
}

func (r *recorder) done() {
	if r != nil {
		r.stats.EndShard(r.si)
	}
}

// begin opens a trial at system interval l.
func (r *recorder) begin(l int) {
	if r == nil {
		return
	}
	r.l = l
	r.bracketed = 0
	r.t0 = time.Now()
}

// end closes the trial opened by begin with its outcome. One clock pair
// times the trial for the phase tally, the slow trials and
// core.integrate_us. A trial whose integration failed (err != nil) is
// booked but not counted as pruned. It writes only the tally's own fields.
func (r *recorder) end(g *GlobalDesign, err error) {
	if r == nil {
		return
	}
	dur := time.Since(r.t0)
	us := float64(dur.Nanoseconds()) / 1e3
	reason := g.ReasonCode.String()
	n := &r.n
	n.trials++
	if g.Feasible {
		n.feasible++
		reason = ""
	} else {
		n.rejects[g.ReasonCode]++
		if !r.keepAll && err == nil {
			n.pruned++
		}
		if chip := g.ReasonChip + 1; r.sp != nil && chip > 0 {
			if n.chipRejects == nil {
				n.chipRejects = make(map[int]map[string]int64)
			}
			if n.chipRejects[chip] == nil {
				n.chipRejects[chip] = make(map[string]int64)
			}
			n.chipRejects[chip][reason]++
		}
	}
	if r.m != nil || r.sp != nil {
		n.integrateUS.Observe(us)
	}
	if r.stats != nil {
		n.slow.Observe(obs.Exemplar{DurUS: us, Shard: r.si, II: r.l, Feasible: g.Feasible, Reason: reason})
	}
	if r.ph != nil {
		// The trial time the schedule and xfer brackets did not take is
		// integrate's, so the three sum to the trial time exactly; a
		// bracket abandoned by an early rejection lands here too.
		ph := &n.phases
		ph.NS[obs.PhaseIntegrate] += int64(dur - r.bracketed)
		ph.Count[obs.PhaseIntegrate]++
		ph.TrialNS += int64(dur)
		ph.Trials++
	}
	if n.trials == flushTrials {
		r.flush()
	}
}

// phase opens a schedule or xfer bracket inside the current trial, and
// endPhase books it against p. Neither reads the clock when no phase
// accounter is attached.
func (r *recorder) phase() time.Time {
	if r == nil || r.ph == nil {
		return time.Time{}
	}
	return time.Now()
}

func (r *recorder) endPhase(t0 time.Time, p obs.Phase) {
	if r != nil && r.ph != nil {
		d := time.Since(t0)
		r.bracketed += d
		r.n.phases.NS[p] += int64(d)
		r.n.phases.Count[p]++
	}
}

// urgency records one urgency-scheduling run's size: its task count and
// the cycles a cycle-by-cycle scheduler steps through (sched.ListResult's
// Cycles).
func (r *recorder) urgency(tasks, cycles int) {
	if r != nil && r.m != nil {
		r.n.urgencyTasks.Observe(float64(tasks))
		r.n.urgencyCycles.Observe(float64(cycles))
	}
}

// serialize records one Figure-5 serialization step: partition (0-based)
// slowed at interval l, chosen for its expected delay.
func (r *recorder) serialize(l, partition, delay int) {
	if r == nil {
		return
	}
	if r.sp != nil {
		r.sp.Point("serialize", obs.F("ii", l), obs.F("partition", partition+1), obs.F("delay", delay))
	}
	r.n.serializations++
}

// flush publishes the tally and empties it: one Metrics Add per nonzero
// counter and one merge per nonempty histogram, so nothing is created at
// zero, one Add into the run stats, one "tally" trace point and one Add
// into the phase accounter. runShards calls it after every shard,
// whichever way the shard ended; end calls it every flushTrials trials.
func (r *recorder) flush() {
	if r == nil {
		return
	}
	n := &r.n
	if r.m != nil {
		add := func(name string, v int64) {
			if v != 0 {
				r.m.Add(name, v)
			}
		}
		add("core.trials", n.trials)
		add("core.trials_feasible", n.feasible)
		for reason, v := range n.rejects {
			add(rejectMetric[reason], v)
		}
		add("core.serializations", n.serializations)
		r.m.MergeHistogram("core.integrate_us", &n.integrateUS)
		r.m.MergeHistogram("core.urgency_tasks", &n.urgencyTasks)
		r.m.MergeHistogram("core.urgency_cycles", &n.urgencyCycles)
	}
	if n.trials > 0 {
		t := obs.ShardTally{
			Shard: r.si, Trials: n.trials, Feasible: n.feasible,
			Reasons: reasonName[:], Rejects: n.rejects[:], Slow: &n.slow,
		}
		r.stats.Add(t)
		obs.WriteTally(r.sp, t, n.pruned, n.chipRejects, &n.integrateUS)
	}
	r.ph.Add(&n.phases)
	*n = tally{}
}
