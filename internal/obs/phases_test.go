package obs

import (
	"sync"
	"testing"
	"time"
)

func TestNilPhaseAccounterIsNoOp(t *testing.T) {
	var a *PhaseAccounter
	a.End(a.Begin(), PhasePredict)
	a.Add(&PhaseTally{Trials: 1})
	if snap := a.Snapshot(); snap != nil {
		t.Fatalf("nil accounter snapshot = %+v, want nil", snap)
	}
	if (*PhaseSnapshot)(nil).PhaseNS("predict") != 0 {
		t.Fatal("nil snapshot PhaseNS != 0")
	}
}

func TestPhaseBracketing(t *testing.T) {
	a := NewPhaseAccounter()
	tok := a.Begin()
	time.Sleep(time.Millisecond)
	a.End(tok, PhasePredict)

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

// TestPhaseAccounterAddAccumulates: tallies folded in by concurrent
// writers over repeated searches (a profiling loop) all accumulate, and
// the snapshot derives shares and coverage from the sums.
func TestPhaseAccounterAddAccumulates(t *testing.T) {
	a := NewPhaseAccounter()
	tally := PhaseTally{TrialNS: 100, Trials: 2}
	tally.NS[PhaseSchedule], tally.Count[PhaseSchedule] = 30, 2
	tally.NS[PhaseXfer], tally.Count[PhaseXfer] = 20, 4
	tally.NS[PhaseIntegrate], tally.Count[PhaseIntegrate] = 50, 2
	const searches, writers = 3, 4
	for s := 0; s < searches; s++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a.Add(&tally)
			}()
		}
		wg.Wait()
	}
	const n = searches * writers
	snap := a.Snapshot()
	if snap.Trials != 2*n || snap.TrialNS != 100*n {
		t.Fatalf("trials %d over %d ns, want %d over %d", snap.Trials, snap.TrialNS, 2*n, 100*n)
	}
	want := []PhaseStat{
		{Phase: "schedule", Count: 2 * n, NS: 30 * n, TimePct: 30},
		{Phase: "xfer", Count: 4 * n, NS: 20 * n, TimePct: 20},
		{Phase: "integrate", Count: 2 * n, NS: 50 * n, TimePct: 50},
	}
	if len(snap.Phases) != len(want) {
		t.Fatalf("phases %+v, want %+v", snap.Phases, want)
	}
	for i, st := range snap.Phases {
		if st != want[i] {
			t.Fatalf("phase %d = %+v, want %+v", i, st, want[i])
		}
	}
	if snap.CoveragePct != 100 {
		t.Fatalf("coverage = %.2f%%, want 100%%", snap.CoveragePct)
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
	var tally PhaseTally
	tally.NS[PhaseSchedule], tally.Count[PhaseSchedule] = 5, 1
	a.Add(&tally)
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
