package obs

import (
	"bytes"
	"strings"
	"testing"
)

// traceScript emits a small synthetic pipeline trace and returns the JSONL.
func traceScript(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	tr := New(sink)
	run := tr.Span("Run", F("graph", "ar"))
	pp := run.Child("PredictPartitions")
	b1 := pp.Child("BAD", F("partition", 1))
	b1.End(F("kept", 7))
	b2 := pp.Child("BAD", F("partition", 2))
	b2.End(F("kept", 3))
	pp.End()
	search := run.Child("Search", F("heuristic", "I"))
	reasons := []string{"area", "rate-mismatch"}
	var us1, us2 Histogram
	for _, v := range []float64{12.5, 10, 7.5} {
		us1.Observe(v)
	}
	us2.Observe(10)
	WriteTally(search, ShardTally{Shard: 0, Trials: 3, Feasible: 1, Reasons: reasons, Rejects: []int64{1, 1}},
		2, map[int]map[string]int64{2: {"area": 1}}, &us1)
	search.Point("serialize", F("partition", 2), F("ii", 10))
	WriteTally(search, ShardTally{Shard: 1, Trials: 1, Reasons: reasons, Rejects: []int64{1, 0}},
		0, map[int]map[string]int64{2: {"area": 1}}, &us2)
	search.End(F("trials", 4))
	run.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestReplayPhasesKeepsLastPoint: the search emits cumulative accounter
// totals in each "phases" point, so replay must keep the newest point per
// report instead of summing, and FormatStats must render the rows.
func TestReplayPhasesKeepsLastPoint(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	tr := New(sink)
	s1 := tr.Span("Search")
	s1.Point("phases", F("trialNS", int64(1000)), F("trials", int64(2)),
		F("schedule", int64(400)), F("integrate", int64(600)))
	s1.End()
	s2 := tr.Span("Search")
	s2.Point("phases", F("trialNS", int64(3000)), F("trials", int64(6)),
		F("schedule", int64(1200)), F("xfer", int64(300)), F("integrate", int64(1500)))
	s2.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	rep, err := Replay(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PhaseTrialNS != 3000 || rep.PhaseTrials != 6 {
		t.Fatalf("trial denominators = %d/%d, want 3000/6 (last point)", rep.PhaseTrialNS, rep.PhaseTrials)
	}
	if rep.PhaseNS["schedule"] != 1200 || rep.PhaseNS["xfer"] != 300 {
		t.Fatalf("phase totals = %v, want the last point's values", rep.PhaseNS)
	}
	out := rep.FormatStats()
	if !strings.Contains(out, "phase attribution") || !strings.Contains(out, "schedule") {
		t.Fatalf("FormatStats misses the phase rows:\n%s", out)
	}
	if !strings.Contains(out, "trial coverage: 100.0%") {
		t.Fatalf("coverage line wrong (want 3000/3000 = 100%%):\n%s", out)
	}
}

func TestReplayAggregates(t *testing.T) {
	rep, err := Replay(traceScript(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 4 || rep.Feasible != 1 {
		t.Fatalf("trials=%d feasible=%d, want 4/1", rep.Trials, rep.Feasible)
	}
	if rep.Reasons["area"] != 2 || rep.Reasons["rate-mismatch"] != 1 {
		t.Fatalf("reason histogram wrong: %+v", rep.Reasons)
	}
	if rep.ChipReasons[2]["area"] != 2 {
		t.Fatalf("per-chip reasons wrong: %+v", rep.ChipReasons)
	}
	if len(rep.ChipReasons) != 1 {
		t.Fatalf("non-chip reasons leaked into chip map: %+v", rep.ChipReasons)
	}
	if rep.Serializations != 1 || rep.Pruned != 2 {
		t.Fatalf("serialize=%d prune=%d, want 1/2", rep.Serializations, rep.Pruned)
	}
	if rep.Stages["BAD"].Count != 2 {
		t.Fatalf("BAD stage count = %d, want 2", rep.Stages["BAD"].Count)
	}
	if st := rep.Stages["integrate"]; st != (StageStat{Count: 4, TotalNS: 40_000, MaxNS: 12_500}) {
		t.Fatalf("integrate stage %+v, want the tallies' 4 samples of 40µs, at most 12.5µs", st)
	}
	if rep.Stages["Run"].Count != 1 || rep.Stages["Run"].TotalNS <= 0 {
		t.Fatalf("Run stage missing duration: %+v", rep.Stages["Run"])
	}
	if rep.Partitions[1] != 7 || rep.Partitions[2] != 3 {
		t.Fatalf("per-partition design counts wrong: %+v", rep.Partitions)
	}
}

func TestReplayFormat(t *testing.T) {
	rep, err := Replay(traceScript(t))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Format()
	for _, want := range []string{
		"time breakdown per stage",
		"trials: 4 examined, 1 feasible, 3 rejected",
		"rejection reasons:",
		"area",
		"rate-mismatch",
		"chip 2:",
		"serialization steps (Figure 5): 1",
		"partition 1: 7 designs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Reasons sorted most-frequent first.
	if strings.Index(out, "area") > strings.Index(out, "rate-mismatch") {
		t.Errorf("reasons not sorted by count:\n%s", out)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(strings.NewReader("not json\n")); err == nil {
		t.Fatal("expected error on malformed trace")
	}
}

func TestReplayEmptyAndBlankLines(t *testing.T) {
	rep, err := Replay(strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 0 || rep.Trials != 0 {
		t.Fatalf("expected empty report, got %+v", rep)
	}
}
