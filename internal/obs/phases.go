package obs

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Phase names one attributed slice of a search trial's cost. Phases are
// the unit of the profiling plane: every trial's wall time (and, in alloc
// mode, its allocations) is booked against exactly one phase at a time,
// so per-phase totals sum back to the measured trial time.
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
	ns     [NumPhases]atomic.Int64
	count  [NumPhases]atomic.Int64
	allocs [NumPhases]atomic.Int64
	bytes  [NumPhases]atomic.Int64
	// trialNS accumulates whole-trial wall time (BeginTrial..EndTrial),
	// the denominator for attribution coverage.
	trialNS atomic.Int64
	trials  atomic.Int64
}

// PhaseAccounter attributes search cost to named phases. Same shape as
// RunStats: a global cell plus per-shard cells sized by StartSearch, all
// methods safe on a nil receiver so instrumented code pays nothing when
// profiling is off.
//
// Time accounting is always valid, serial or parallel. Allocation
// accounting (EnableAllocCounting) reads process-wide heap counters from
// runtime/metrics, so per-phase alloc deltas are only attributable when a
// single goroutine is doing the allocating — `chop profile` therefore
// runs its workload with Workers=1. Heap profiles do not carry pprof
// labels, which is exactly why these counters exist.
type PhaseAccounter struct {
	mu     sync.Mutex
	shards []phaseCell
	global phaseCell

	allocMode atomic.Bool
	// samples is the preallocated runtime/metrics read buffer; reading
	// through it on every Begin/End must not itself allocate.
	samples []metrics.Sample
}

const (
	metricAllocObjects = "/gc/heap/allocs:objects"
	metricAllocBytes   = "/gc/heap/allocs:bytes"
)

// NewPhaseAccounter returns an accounter with a global cell and no
// shard cells yet; StartSearch sizes the shard table.
func NewPhaseAccounter() *PhaseAccounter {
	return &PhaseAccounter{
		samples: []metrics.Sample{
			{Name: metricAllocObjects},
			{Name: metricAllocBytes},
		},
	}
}

// StartSearch sizes the per-shard cell table for a search with the given
// shard count. Counters accumulate across repeated searches on the same
// accounter (a profiling loop runs many iterations of one workload).
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
		dst.allocs[p].Store(src.allocs[p].Load())
		dst.bytes[p].Store(src.bytes[p].Load())
	}
	dst.trialNS.Store(src.trialNS.Load())
	dst.trials.Store(src.trials.Load())
}

// EnableAllocCounting turns on per-phase allocation deltas. Only
// meaningful for single-goroutine (Workers=1) runs: the underlying
// counters are process-wide, so concurrent allocators would cross-charge
// each other's phases. `chop profile` is the intended caller.
//
// The counts are exact only in aggregate. The runtime books small-object
// allocations per span, when a P's cached span is swapped out on refill
// (runtime/mcache.go), not per object. A bracket's delta therefore lacks
// the objects still sitting in the cached span at its end — up to one
// span's worth per size class it allocated from, e.g. 8 objects (8 KiB)
// for 1 KiB objects in 8 KiB spans — and may include objects allocated
// just before it opened. Over many brackets the two errors cancel;
// assert on a single small bracket only within that bound.
func (a *PhaseAccounter) EnableAllocCounting() {
	if a == nil {
		return
	}
	a.allocMode.Store(true)
}

// Global returns the handle writers outside any shard use (serial
// engines, BAD prediction, checkpointing).
func (a *PhaseAccounter) Global() *PhaseHandle {
	if a == nil {
		return nil
	}
	return &PhaseHandle{a: a, cell: &a.global}
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
		return &PhaseHandle{a: a, cell: &a.global}
	}
	return &PhaseHandle{a: a, cell: &a.shards[si]}
}

// readAllocs returns the cumulative heap allocation counters. Must only
// be called in alloc mode; uses the preallocated sample buffer.
func (a *PhaseAccounter) readAllocs() (objects, bytes uint64) {
	metrics.Read(a.samples)
	if a.samples[0].Value.Kind() == metrics.KindUint64 {
		objects = a.samples[0].Value.Uint64()
	}
	if a.samples[1].Value.Kind() == metrics.KindUint64 {
		bytes = a.samples[1].Value.Uint64()
	}
	return objects, bytes
}

// PhaseHandle is one writer's view of the accounter: Begin/End bracket a
// phase, BeginTrial/EndTrial bracket a whole trial and book the
// unattributed remainder as PhaseIntegrate. Nil-safe throughout.
type PhaseHandle struct {
	a    *PhaseAccounter
	cell *phaseCell
}

// PhaseToken carries a phase's entry state from Begin to End.
type PhaseToken struct {
	startNS   int64
	allocObjs uint64
	allocB    uint64
	alloc     bool
}

// Begin opens a phase bracket. The token is a value; nesting distinct
// phases is fine as long as each Begin has a matching End.
func (h *PhaseHandle) Begin() PhaseToken {
	if h == nil {
		return PhaseToken{}
	}
	tok := PhaseToken{startNS: time.Now().UnixNano()}
	if h.a.allocMode.Load() {
		tok.alloc = true
		tok.allocObjs, tok.allocB = h.a.readAllocs()
	}
	return tok
}

// End closes a bracket opened by Begin, booking the elapsed time (and
// allocation delta in alloc mode) against phase p.
func (h *PhaseHandle) End(tok PhaseToken, p Phase) {
	if h == nil || p < 0 || int(p) >= NumPhases {
		return
	}
	h.cell.ns[p].Add(time.Now().UnixNano() - tok.startNS)
	h.cell.count[p].Add(1)
	if tok.alloc {
		objs, b := h.a.readAllocs()
		h.cell.allocs[p].Add(int64(objs - tok.allocObjs))
		h.cell.bytes[p].Add(int64(b - tok.allocB))
	}
}

// TrialToken carries a trial's entry state from BeginTrial to EndTrial:
// the start time plus the cell's own schedule/xfer counters, so the
// remainder can be computed without any cross-goroutine reads (the
// worker owns its cell).
type TrialToken struct {
	startNS   int64
	schedNS   int64
	xferNS    int64
	allocObjs uint64
	allocB    uint64
	schedObjs int64
	schedB    int64
	xferObjs  int64
	xferB     int64
	alloc     bool
}

// BeginTrial opens a whole-trial bracket starting at now. The caller
// passes the instant so one clock read can time the trial for several
// consumers.
func (h *PhaseHandle) BeginTrial(now time.Time) TrialToken {
	if h == nil {
		return TrialToken{}
	}
	tok := TrialToken{
		startNS: now.UnixNano(),
		schedNS: h.cell.ns[PhaseSchedule].Load(),
		xferNS:  h.cell.ns[PhaseXfer].Load(),
	}
	if h.a.allocMode.Load() {
		tok.alloc = true
		tok.allocObjs, tok.allocB = h.a.readAllocs()
		tok.schedObjs = h.cell.allocs[PhaseSchedule].Load()
		tok.schedB = h.cell.bytes[PhaseSchedule].Load()
		tok.xferObjs = h.cell.allocs[PhaseXfer].Load()
		tok.xferB = h.cell.bytes[PhaseXfer].Load()
	}
	return tok
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
	if tok.alloc {
		objs, b := h.a.readAllocs()
		restObjs := int64(objs-tok.allocObjs) -
			(h.cell.allocs[PhaseSchedule].Load() - tok.schedObjs) -
			(h.cell.allocs[PhaseXfer].Load() - tok.xferObjs)
		restB := int64(b-tok.allocB) -
			(h.cell.bytes[PhaseSchedule].Load() - tok.schedB) -
			(h.cell.bytes[PhaseXfer].Load() - tok.xferB)
		if restObjs < 0 {
			restObjs = 0
		}
		if restB < 0 {
			restB = 0
		}
		h.cell.allocs[PhaseIntegrate].Add(restObjs)
		h.cell.bytes[PhaseIntegrate].Add(restB)
	}
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
	// Allocs/Bytes are heap allocation deltas (alloc mode only).
	Allocs int64 `json:"allocs,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
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
	// AllocMode records whether per-phase allocation deltas are valid.
	AllocMode bool `json:"allocMode,omitempty"`
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

	var ns, count, allocs, bytes [NumPhases]int64
	var trialNS, trials int64
	for _, c := range cells {
		for p := 0; p < NumPhases; p++ {
			ns[p] += c.ns[p].Load()
			count[p] += c.count[p].Load()
			allocs[p] += c.allocs[p].Load()
			bytes[p] += c.bytes[p].Load()
		}
		trialNS += c.trialNS.Load()
		trials += c.trials.Load()
	}

	var totalNS int64
	for p := 0; p < NumPhases; p++ {
		totalNS += ns[p]
	}
	snap := &PhaseSnapshot{
		Trials:    trials,
		TrialNS:   trialNS,
		AllocMode: a.allocMode.Load(),
	}
	for p := 0; p < NumPhases; p++ {
		if count[p] == 0 && ns[p] == 0 {
			continue
		}
		st := PhaseStat{
			Phase:  Phase(p).String(),
			Count:  count[p],
			NS:     ns[p],
			Allocs: allocs[p],
			Bytes:  bytes[p],
		}
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
