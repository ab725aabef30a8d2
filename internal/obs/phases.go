package obs

import (
	"sync"
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
	// feasibility checks. Booked as trialTotal − schedule − xfer so
	// attribution covers the whole trial by construction.
	PhaseIntegrate
	// PhaseCheckpoint is search-checkpoint serialization + persistence.
	PhaseCheckpoint
	// NumPhases bounds the per-cell counter arrays.
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

// phaseCell is one writer's private counter block. In parallel searches
// each shard worker owns a cell, so the hot path is plain atomic adds
// with no sharing; Snapshot folds the cells.
type phaseCell struct {
	ns    [NumPhases]atomic.Int64
	count [NumPhases]atomic.Int64
	// trialNS accumulates whole-trial wall time (BeginTrial..EndTrial),
	// the denominator for attribution coverage.
	trialNS atomic.Int64
	trials  atomic.Int64
}

// PhaseAccounter attributes search cost to named phases. Same shape as
// RunStats: a global cell plus per-shard cells sized by StartSearch, all
// methods safe on a nil receiver so instrumented code pays nothing when
// profiling is off.
type PhaseAccounter struct {
	mu     sync.Mutex
	shards []phaseCell
	global phaseCell
}

// NewPhaseAccounter returns an accounter with a global cell and no
// shard cells yet; StartSearch sizes the shard table.
func NewPhaseAccounter() *PhaseAccounter {
	return &PhaseAccounter{}
}

// StartSearch sizes the per-shard cell table for a search with the given
// shard count. Counters accumulate across repeated searches on the same
// accounter (a benchmark loop runs many iterations of one workload).
func (a *PhaseAccounter) StartSearch(shards int) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if shards > len(a.shards) {
		grown := make([]phaseCell, shards)
		// Cells are monotonically accumulated and folded by Snapshot;
		// carrying old cells over keeps prior iterations' totals.
		for i := range a.shards {
			copyPhaseCell(&grown[i], &a.shards[i])
		}
		a.shards = grown
	}
}

func copyPhaseCell(dst, src *phaseCell) {
	for p := 0; p < NumPhases; p++ {
		dst.ns[p].Store(src.ns[p].Load())
		dst.count[p].Store(src.count[p].Load())
	}
	dst.trialNS.Store(src.trialNS.Load())
	dst.trials.Store(src.trials.Load())
}

// Global returns the handle writers outside any shard use (serial
// engines, BAD prediction, checkpointing).
func (a *PhaseAccounter) Global() *PhaseHandle {
	if a == nil {
		return nil
	}
	return &PhaseHandle{cell: &a.global}
}

// Shard returns the handle for shard si, or the global handle when the
// index is out of range.
func (a *PhaseAccounter) Shard(si int) *PhaseHandle {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if si < 0 || si >= len(a.shards) {
		return &PhaseHandle{cell: &a.global}
	}
	return &PhaseHandle{cell: &a.shards[si]}
}

// PhaseHandle is one writer's view of the accounter: Begin/End bracket a
// phase, BeginTrial/EndTrial bracket a whole trial and book the
// unattributed remainder as PhaseIntegrate. Nil-safe throughout.
type PhaseHandle struct {
	cell *phaseCell
}

// PhaseToken carries a phase's entry state from Begin to End.
type PhaseToken struct {
	startNS int64
}

// Begin opens a phase bracket. The token is a value; nesting distinct
// phases is fine as long as each Begin has a matching End.
func (h *PhaseHandle) Begin() PhaseToken {
	if h == nil {
		return PhaseToken{}
	}
	return PhaseToken{startNS: time.Now().UnixNano()}
}

// End closes a bracket opened by Begin, booking the elapsed time against
// phase p.
func (h *PhaseHandle) End(tok PhaseToken, p Phase) {
	if h == nil || p < 0 || int(p) >= NumPhases {
		return
	}
	h.cell.ns[p].Add(time.Now().UnixNano() - tok.startNS)
	h.cell.count[p].Add(1)
}

// TrialToken carries a trial's entry state from BeginTrial to EndTrial:
// the start time plus the cell's own schedule/xfer counters, so the
// remainder can be computed without any cross-goroutine reads (the
// worker owns its cell).
type TrialToken struct {
	startNS int64
	schedNS int64
	xferNS  int64
}

// BeginTrial opens a whole-trial bracket starting at now. The caller
// passes the instant so one clock read can time the trial for several
// consumers.
func (h *PhaseHandle) BeginTrial(now time.Time) TrialToken {
	if h == nil {
		return TrialToken{}
	}
	return TrialToken{
		startNS: now.UnixNano(),
		schedNS: h.cell.ns[PhaseSchedule].Load(),
		xferNS:  h.cell.ns[PhaseXfer].Load(),
	}
}

// EndTrial closes a trial bracket at now: total wall time goes to
// trialNS, and the portion not already booked to schedule or xfer during
// the trial is booked as PhaseIntegrate. Attribution therefore sums to the
// measured trial time by construction.
func (h *PhaseHandle) EndTrial(tok TrialToken, now time.Time) {
	if h == nil {
		return
	}
	total := now.UnixNano() - tok.startNS
	h.cell.trialNS.Add(total)
	h.cell.trials.Add(1)
	rest := total -
		(h.cell.ns[PhaseSchedule].Load() - tok.schedNS) -
		(h.cell.ns[PhaseXfer].Load() - tok.xferNS)
	if rest < 0 {
		rest = 0
	}
	h.cell.ns[PhaseIntegrate].Add(rest)
	h.cell.count[PhaseIntegrate].Add(1)
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

// Snapshot folds the global and shard cells into a consistent-enough
// view for display (individual counters are atomically read; the set is
// not a transaction, same contract as RunStats).
func (a *PhaseAccounter) Snapshot() *PhaseSnapshot {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	cells := make([]*phaseCell, 0, len(a.shards)+1)
	cells = append(cells, &a.global)
	for i := range a.shards {
		cells = append(cells, &a.shards[i])
	}
	a.mu.Unlock()

	var ns, count [NumPhases]int64
	var trialNS, trials int64
	for _, c := range cells {
		for p := 0; p < NumPhases; p++ {
			ns[p] += c.ns[p].Load()
			count[p] += c.count[p].Load()
		}
		trialNS += c.trialNS.Load()
		trials += c.trials.Load()
	}

	var totalNS int64
	for p := 0; p < NumPhases; p++ {
		totalNS += ns[p]
	}
	snap := &PhaseSnapshot{Trials: trials, TrialNS: trialNS}
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
