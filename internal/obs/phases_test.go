package obs

import (
	"testing"
	"time"
)

func TestNilPhaseAccounterIsNoOp(t *testing.T) {
	var a *PhaseAccounter
	a.StartSearch(4)
	if h := a.Global(); h != nil {
		t.Fatal("nil accounter returned a global handle")
	}
	if h := a.Shard(0); h != nil {
		t.Fatal("nil accounter returned a shard handle")
	}
	var h *PhaseHandle
	tok := h.Begin()
	h.End(tok, PhasePredict)
	tt := h.BeginTrial(time.Now())
	h.EndTrial(tt, time.Now())
	if snap := a.Snapshot(); snap != nil {
		t.Fatalf("nil accounter snapshot = %+v, want nil", snap)
	}
	if (*PhaseSnapshot)(nil).PhaseNS("predict") != 0 {
		t.Fatal("nil snapshot PhaseNS != 0")
	}
}

func TestPhaseBracketing(t *testing.T) {
	a := NewPhaseAccounter()
	a.StartSearch(1)
	h := a.Shard(0)

	tok := h.Begin()
	time.Sleep(time.Millisecond)
	h.End(tok, PhasePredict)

	snap := a.Snapshot()
	if got := snap.PhaseNS(PhasePredict.String()); got <= 0 {
		t.Fatalf("predict ns = %d, want > 0", got)
	}
	var count int64
	for _, p := range snap.Phases {
		if p.Phase == "predict" {
			count = p.Count
		}
	}
	if count != 1 {
		t.Fatalf("predict count = %d, want 1", count)
	}
}

// TestTrialRemainderSumsToTrialTime: the integrate remainder is defined as
// trial total minus the schedule and xfer booked inside the trial, so the
// three in-trial phases must sum exactly to the measured trial time
// (coverage 100% by construction).
func TestTrialRemainderSumsToTrialTime(t *testing.T) {
	a := NewPhaseAccounter()
	a.StartSearch(1)
	h := a.Shard(0)

	for i := 0; i < 5; i++ {
		tt := h.BeginTrial(time.Now())
		st := h.Begin()
		time.Sleep(200 * time.Microsecond)
		h.End(st, PhaseSchedule)
		xt := h.Begin()
		time.Sleep(100 * time.Microsecond)
		h.End(xt, PhaseXfer)
		time.Sleep(100 * time.Microsecond) // unbracketed: must land in integrate
		h.EndTrial(tt, time.Now())
	}

	snap := a.Snapshot()
	if snap.Trials != 5 {
		t.Fatalf("trials = %d, want 5", snap.Trials)
	}
	inTrial := snap.PhaseNS("schedule") + snap.PhaseNS("xfer") + snap.PhaseNS("integrate")
	if inTrial != snap.TrialNS {
		t.Fatalf("in-trial phases sum to %d ns, trial time is %d ns", inTrial, snap.TrialNS)
	}
	if snap.CoveragePct < 99.9 || snap.CoveragePct > 100.1 {
		t.Fatalf("coverage = %.2f%%, want 100%%", snap.CoveragePct)
	}
	if snap.PhaseNS("integrate") <= 0 {
		t.Fatal("no remainder booked to integrate")
	}
}

// TestStartSearchGrowsAndCarries: repeated searches on one accounter (a
// profiling loop) must accumulate — growing the shard table carries the old
// cells, and a smaller later search must not drop them.
func TestStartSearchGrowsAndCarries(t *testing.T) {
	a := NewPhaseAccounter()
	a.StartSearch(1)
	h := a.Shard(0)
	tok := h.Begin()
	h.End(tok, PhaseSchedule)

	a.StartSearch(4)
	h3 := a.Shard(3)
	tok = h3.Begin()
	h3.End(tok, PhaseSchedule)

	a.StartSearch(2) // shrink request: table must keep its 4 cells
	h3b := a.Shard(3)
	tok = h3b.Begin()
	h3b.End(tok, PhaseSchedule)

	snap := a.Snapshot()
	var count int64
	for _, p := range snap.Phases {
		if p.Phase == "schedule" {
			count = p.Count
		}
	}
	if count != 3 {
		t.Fatalf("schedule count = %d, want 3 (accumulated across searches)", count)
	}
}

// TestShardOutOfRangeFallsBackToGlobal: an index beyond the table books on
// the global cell instead of dropping the measurement.
func TestShardOutOfRangeFallsBackToGlobal(t *testing.T) {
	a := NewPhaseAccounter()
	a.StartSearch(1)
	h := a.Shard(99)
	if h == nil {
		t.Fatal("out-of-range shard returned nil")
	}
	tok := h.Begin()
	h.End(tok, PhaseCheckpoint)
	snap := a.Snapshot()
	var count int64
	for _, p := range snap.Phases {
		if p.Phase == "checkpoint" {
			count = p.Count
		}
	}
	if count != 1 {
		t.Fatalf("checkpoint count = %d, want 1", count)
	}
}

// TestRunStatsSnapshotCarriesPhases: an attached accounter surfaces in the
// stats snapshot, and the first attachment wins.
func TestRunStatsSnapshotCarriesPhases(t *testing.T) {
	s := NewRunStats("x")
	if snap := s.Snapshot(); snap.Phases != nil {
		t.Fatal("phases present before attach")
	}
	a := NewPhaseAccounter()
	a.StartSearch(1)
	h := a.Shard(0)
	tok := h.Begin()
	h.End(tok, PhaseSchedule)
	s.AttachPhases(a)
	s.AttachPhases(NewPhaseAccounter()) // loser: first attach wins

	snap := s.Snapshot()
	if snap.Phases == nil {
		t.Fatal("no phases in snapshot after attach")
	}
	if snap.Phases.PhaseNS("schedule") <= 0 {
		t.Fatal("snapshot phases came from the wrong accounter")
	}
}
