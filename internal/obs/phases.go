package obs

import (
	"sync/atomic"
	"time"
)

// Phase names one attributed slice of a search trial's cost. Phases are
// the unit of the profiling plane: every trial's wall time is booked
// against exactly one phase at a time, so per-phase totals sum back to the
// measured trial time.
type Phase int

const (
	// PhasePredict is BAD design-curve prediction (cache misses only).
	PhasePredict Phase = iota
	// PhaseCacheLookup is predictor-cache key computation + probing.
	PhaseCacheLookup
	// PhaseSchedule is urgency list scheduling inside integration.
	PhaseSchedule
	// PhaseXfer is inter-chip transfer sizing and delay prediction.
	PhaseXfer
	// PhaseIntegrate is the remainder of a trial after schedule and
	// xfer: selection decode, pin/memory budgeting, clock adjustment,
	// feasibility checks. The search recorder books it as trialTotal −
	// schedule − xfer, so attribution covers the whole trial by
	// construction.
	PhaseIntegrate
	// PhaseCheckpoint is search-checkpoint serialization + persistence.
	PhaseCheckpoint
	// NumPhases bounds the per-phase counter arrays.
	NumPhases int = iota
)

var phaseNames = [NumPhases]string{
	PhasePredict:     "predict",
	PhaseCacheLookup: "cache-lookup",
	PhaseSchedule:    "schedule",
	PhaseXfer:        "xfer",
	PhaseIntegrate:   "integrate",
	PhaseCheckpoint:  "checkpoint",
}

func (p Phase) String() string {
	if p < 0 || int(p) >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseTally is a block of phase totals that one writer owns: a search
// worker's recorder counts trials into it with plain adds and folds it into
// the run's accounter with Add.
type PhaseTally struct {
	NS    [NumPhases]int64
	Count [NumPhases]int64
	// TrialNS is whole-trial wall time, the denominator of attribution
	// coverage, over Trials trials.
	TrialNS int64
	Trials  int64
}

// PhaseAccounter attributes search cost to named phases. It is one set of
// atomic counters that accumulates across searches (a benchmark loop runs
// many iterations of one workload): out-of-trial code such as BAD
// prediction and checkpoint saves brackets its phases with Begin and End,
// and search workers fold their trial tallies in with Add. All methods are
// safe on a nil receiver, so instrumented code pays nothing when profiling
// is off.
type PhaseAccounter struct {
	ns      [NumPhases]atomic.Int64
	count   [NumPhases]atomic.Int64
	trialNS atomic.Int64
	trials  atomic.Int64
}

// NewPhaseAccounter returns an empty accounter.
func NewPhaseAccounter() *PhaseAccounter {
	return &PhaseAccounter{}
}

// PhaseToken carries a phase's start from Begin to End.
type PhaseToken struct {
	start time.Time
}

// Begin opens a phase bracket. The token is a value; nesting distinct
// phases is fine as long as each Begin has a matching End.
func (a *PhaseAccounter) Begin() PhaseToken {
	if a == nil {
		return PhaseToken{}
	}
	return PhaseToken{start: time.Now()}
}

// End closes a bracket opened by Begin, booking the elapsed time against
// phase p.
func (a *PhaseAccounter) End(tok PhaseToken, p Phase) {
	if a == nil || p < 0 || int(p) >= NumPhases {
		return
	}
	a.ns[p].Add(int64(time.Since(tok.start)))
	a.count[p].Add(1)
}

// Add folds a writer's tally into the accounter.
func (a *PhaseAccounter) Add(t *PhaseTally) {
	if a == nil {
		return
	}
	for p := range t.NS {
		a.ns[p].Add(t.NS[p])
		a.count[p].Add(t.Count[p])
	}
	a.trialNS.Add(t.TrialNS)
	a.trials.Add(t.Trials)
}

// PhaseStat is one phase's folded totals.
type PhaseStat struct {
	Phase string `json:"phase"`
	// Count is the number of closed brackets (for integrate: trials).
	Count int64 `json:"count"`
	// NS is total wall time in the phase.
	NS int64 `json:"ns"`
	// TimePct is NS as a percentage of the sum over all phases.
	TimePct float64 `json:"timePct"`
}

// PhaseSnapshot is the folded view of a PhaseAccounter.
type PhaseSnapshot struct {
	Phases []PhaseStat `json:"phases"`
	// Trials and TrialNS are the whole-trial denominators.
	Trials  int64 `json:"trials"`
	TrialNS int64 `json:"trialNS"`
	// CoveragePct is the share of measured trial wall time attributed
	// to in-trial phases (schedule + xfer + integrate).
	CoveragePct float64 `json:"coveragePct"`
}

// PhaseNS returns the named phase's total ns, 0 when absent.
func (s *PhaseSnapshot) PhaseNS(name string) int64 {
	if s == nil {
		return 0
	}
	for _, p := range s.Phases {
		if p.Phase == name {
			return p.NS
		}
	}
	return 0
}

// Snapshot reads the accounter for display. Each counter is read
// atomically; the set is not a transaction, the same contract as RunStats.
func (a *PhaseAccounter) Snapshot() *PhaseSnapshot {
	if a == nil {
		return nil
	}
	var ns, count [NumPhases]int64
	var totalNS int64
	for p := range ns {
		ns[p], count[p] = a.ns[p].Load(), a.count[p].Load()
		totalNS += ns[p]
	}
	trialNS := a.trialNS.Load()
	snap := &PhaseSnapshot{Trials: a.trials.Load(), TrialNS: trialNS}
	for p := 0; p < NumPhases; p++ {
		if count[p] == 0 && ns[p] == 0 {
			continue
		}
		st := PhaseStat{Phase: Phase(p).String(), Count: count[p], NS: ns[p]}
		if totalNS > 0 {
			st.TimePct = 100 * float64(ns[p]) / float64(totalNS)
		}
		snap.Phases = append(snap.Phases, st)
	}
	if trialNS > 0 {
		inTrial := ns[PhaseSchedule] + ns[PhaseXfer] + ns[PhaseIntegrate]
		snap.CoveragePct = 100 * float64(inTrial) / float64(trialNS)
	}
	return snap
}
