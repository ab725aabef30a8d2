package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"chop/internal/obs"
)

// TestRecorderFlushPublishesTally is the hardware-independent gate on the
// recorder's batching: a worker's trials reach Metrics, RunStats and the
// phase accounter only when its recorder flushes, which runShards does
// after every shard and end does every flushTrials trials, so a search
// makes O(shards + trials/flushTrials) updates to those planes instead of
// several per trial.
func TestRecorderFlushPublishesTally(t *testing.T) {
	cfg := Config{
		Metrics: obs.NewMetrics(),
		Stats:   obs.NewRunStats("recorder"),
		Phases:  obs.NewPhaseAccounter(),
	}
	cfg.Stats.StartSearch(1, 0)
	rec := newRecorder(cfg, nil)
	rec.start(0, 0)
	// trial books one trial with `runs` urgency runs, each inside a
	// schedule bracket between two xfer brackets.
	trial := func(g GlobalDesign, runs int) {
		rec.begin(4)
		for i := 0; i < runs; i++ {
			rec.endPhase(rec.phase(), obs.PhaseXfer)
			rec.endPhase(rec.phase(), obs.PhaseSchedule)
			rec.urgency(3, 7)
			rec.endPhase(rec.phase(), obs.PhaseXfer)
		}
		rec.end(&g, nil)
	}
	trial(GlobalDesign{Feasible: true, ReasonChip: -1}, 2)
	trial(GlobalDesign{ReasonCode: ReasonArea, ReasonChip: 0}, 1)
	trial(GlobalDesign{ReasonCode: ReasonRateMismatch, ReasonChip: -1}, 0)
	trial(GlobalDesign{ReasonCode: ReasonArea, ReasonChip: 1}, 1)
	rec.serialize(4, 0, 10)

	if m := cfg.Metrics.Snapshot(); len(m.Counters) != 0 || len(m.Histograms) != 0 {
		t.Fatalf("metrics published before flush: %+v", m)
	}
	if ph := cfg.Phases.Snapshot(); ph.Trials != 0 || len(ph.Phases) != 0 {
		t.Fatalf("phases published before flush: %+v", ph)
	}
	if st := cfg.Stats.Snapshot(); st.Trials != 0 || st.Feasible != 0 || st.Rejects != nil || st.SlowTrials != nil {
		t.Fatalf("stats published before flush: %+v", st)
	}

	rec.flush()
	m := cfg.Metrics.Snapshot()
	wantCounters := map[string]int64{
		"core.trials":               4,
		"core.trials_feasible":      1,
		"core.reject.area":          2,
		"core.reject.rate-mismatch": 1,
		"core.serializations":       1,
	}
	if !reflect.DeepEqual(m.Counters, wantCounters) {
		t.Fatalf("counters %v, want %v", m.Counters, wantCounters)
	}
	if len(m.Histograms) != 3 || m.Histograms["core.integrate_us"].Count != 4 {
		t.Fatalf("histograms %v, want core.integrate_us with 4 samples and two urgency ones", m.Histograms)
	}
	// Four urgency runs of 3 tasks over 7 cycles each.
	for name, sum := range map[string]float64{"core.urgency_tasks": 12, "core.urgency_cycles": 28} {
		if h := m.Histograms[name]; h.Count != 4 || h.Sum != sum {
			t.Fatalf("%s: %d samples summing to %g, want 4 summing to %g", name, h.Count, h.Sum, sum)
		}
	}
	st := cfg.Stats.Snapshot()
	wantRejects := map[string]int64{"area": 2, "rate-mismatch": 1}
	if st.Trials != 4 || st.Feasible != 1 || !reflect.DeepEqual(st.Rejects, wantRejects) {
		t.Fatalf("stats fold %d/%d feasible, rejects %v; want 4/1, %v", st.Trials, st.Feasible, st.Rejects, wantRejects)
	}
	// Every trial is among the slowest four, slowest first; which is
	// slowest depends on the clock, so compare them by outcome.
	var outcomes []string
	for i, e := range st.SlowTrials {
		if e.Shard != 0 || e.II != 4 || (i > 0 && e.DurUS > st.SlowTrials[i-1].DurUS) {
			t.Fatalf("slow trial %d = %+v (of %+v)", i, e, st.SlowTrials)
		}
		outcomes = append(outcomes, fmt.Sprintf("%v/%s", e.Feasible, e.Reason))
	}
	sort.Strings(outcomes)
	if want := []string{"false/area", "false/area", "false/rate-mismatch", "true/"}; !reflect.DeepEqual(outcomes, want) {
		t.Fatalf("slow trials %v, want %v", outcomes, want)
	}
	ph := cfg.Phases.Snapshot()
	if ph.Trials != 4 {
		t.Fatalf("accounter saw %d trials, want 4", ph.Trials)
	}
	for name, want := range map[string]int64{"xfer": 8, "schedule": 4, "integrate": 4} {
		if got := phaseCount(ph, name); got != want {
			t.Fatalf("%s count %d, want %d", name, got, want)
		}
	}
	if in := ph.PhaseNS("schedule") + ph.PhaseNS("xfer") + ph.PhaseNS("integrate"); in != ph.TrialNS {
		t.Fatalf("in-trial phases sum to %d ns of %d ns trial time", in, ph.TrialNS)
	}

	// An empty tally publishes nothing more.
	rec.flush()
	if again := cfg.Metrics.Snapshot(); !reflect.DeepEqual(again, m) {
		t.Fatalf("second flush changed metrics: %+v", again)
	}
	if again := cfg.Phases.Snapshot(); !reflect.DeepEqual(again, ph) {
		t.Fatalf("second flush changed phases: %+v", again)
	}
	if again := cfg.Stats.Snapshot(); again.Trials != 4 || !reflect.DeepEqual(again.SlowTrials, st.SlowTrials) {
		t.Fatalf("second flush changed stats: %+v", again)
	}

	// flushTrials trials publish without an explicit flush.
	for i := 0; i < flushTrials; i++ {
		trial(GlobalDesign{ReasonCode: ReasonArea, ReasonChip: 0}, 0)
	}
	if got := cfg.Metrics.Counter("core.trials"); got != 4+flushTrials {
		t.Fatalf("core.trials %d after %d more trials, want %d", got, flushTrials, 4+flushTrials)
	}
	if got := cfg.Phases.Snapshot().Trials; got != 4+flushTrials {
		t.Fatalf("accounter saw %d trials, want %d", got, 4+flushTrials)
	}
	if got := cfg.Stats.Snapshot(); got.Trials != 4+flushTrials || got.Rejects["area"] != 2+flushTrials {
		t.Fatalf("stats fold %d trials, %d area rejects; want %d, %d",
			got.Trials, got.Rejects["area"], 4+flushTrials, 2+flushTrials)
	}
}
