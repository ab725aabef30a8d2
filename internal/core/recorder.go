package core

import (
	"time"

	"chop/internal/obs"
)

// recorder books one search shard's trials into every telemetry plane the
// Config attaches: the trace (integrate span, trial/prune/serialize
// points), the metrics registry (core.* counters, integrate and urgency
// histograms), the shard's RunStats cell with its slow-trial exemplars,
// and the shard's phase cell (trial, schedule and xfer brackets). It is
// the only per-trial code that calls into obs.
//
// runShards builds one per shard; it is nil when no plane is attached,
// and every method is a no-op on a nil receiver, so a bare search pays a
// nil check per call site. A shard runs on one goroutine and its trials
// never nest, so the in-flight trial's state lives in the recorder.
type recorder struct {
	sp      *obs.Span // the Search span; nil when tracing is off
	m       *obs.Metrics
	ss      *obs.ShardStats
	ph      *obs.PhaseHandle
	keepAll bool

	// The trial between begin and end: its interval, start instant,
	// integrate span and phase bracket.
	l    int
	t0   time.Time
	tsp  *obs.Span
	ptok obs.TrialToken
}

// newRecorder returns shard si's recorder, or nil when cfg attaches no
// telemetry plane and sp is nil.
func newRecorder(cfg Config, sp *obs.Span, si int) *recorder {
	if sp == nil && cfg.Metrics == nil && cfg.Stats == nil && cfg.Phases == nil {
		return nil
	}
	return &recorder{
		sp: sp, m: cfg.Metrics, keepAll: cfg.KeepAll,
		ss: cfg.Stats.ShardStats(si), ph: cfg.Phases.Shard(si),
	}
}

// rejectMetric names each Reason's core.reject.<reason> counter, built
// once so booking a rejection concatenates nothing.
var rejectMetric = func() (names [numReasons]string) {
	for r := range names {
		names[r] = "core.reject." + Reason(r).String()
	}
	return names
}()

// start marks the shard claimed with its planned trial count (0: unknown)
// and done marks it complete.
func (r *recorder) start(total int64) {
	if r != nil {
		r.ss.Start(total)
	}
}

func (r *recorder) done() {
	if r != nil {
		r.ss.Done()
	}
}

// begin opens a trial at system interval l.
func (r *recorder) begin(l int) {
	if r == nil {
		return
	}
	r.l = l
	if r.sp != nil {
		r.tsp = r.sp.Child("integrate", obs.F("ii", l))
	}
	r.t0 = time.Now()
	r.ptok = r.ph.BeginTrial(r.t0)
}

// end closes the trial opened by begin with its outcome. One clock pair
// times the trial for the phase bracket, the exemplar and
// core.integrate_us. A trial whose integration failed (err != nil) is
// booked but not reported as pruned.
func (r *recorder) end(g *GlobalDesign, err error) {
	if r == nil {
		return
	}
	t1 := time.Now()
	r.ph.EndTrial(r.ptok, t1)
	us := float64(t1.Sub(r.t0).Nanoseconds()) / 1e3
	reason := g.ReasonCode.String()
	if r.sp != nil {
		r.tsp.End(obs.F("feasible", g.Feasible), obs.F("reason", reason))
		fields := []obs.Field{obs.F("ii", r.l), obs.F("feasible", g.Feasible)}
		if !g.Feasible {
			fields = append(fields, obs.F("reason", reason))
			if g.ReasonChip >= 0 {
				fields = append(fields, obs.F("chip", g.ReasonChip+1))
			}
		}
		r.sp.Point("trial", fields...)
		if !g.Feasible && !r.keepAll && err == nil {
			r.sp.Point("prune", obs.F("reason", reason))
		}
	}
	if g.Feasible {
		reason = ""
	}
	r.ss.Trial(us, r.l, g.Feasible, reason)
	if r.m != nil {
		r.m.Inc("core.trials")
		r.m.Observe("core.integrate_us", us)
		if g.Feasible {
			r.m.Inc("core.trials_feasible")
		} else {
			r.m.Inc(rejectMetric[g.ReasonCode])
		}
	}
}

// phase opens a schedule or xfer bracket inside the current trial, and
// endPhase books it against p.
func (r *recorder) phase() obs.PhaseToken {
	if r == nil {
		return obs.PhaseToken{}
	}
	return r.ph.Begin()
}

func (r *recorder) endPhase(tok obs.PhaseToken, p obs.Phase) {
	if r != nil {
		r.ph.End(tok, p)
	}
}

// urgency records one urgency-scheduling run's size: its task count and
// the cycles a cycle-by-cycle scheduler steps through (sched.ListResult's
// Cycles).
func (r *recorder) urgency(tasks, cycles int) {
	if r != nil && r.m != nil {
		r.m.Observe("core.urgency_tasks", float64(tasks))
		r.m.Observe("core.urgency_cycles", float64(cycles))
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
	r.m.Inc("core.serializations")
}
