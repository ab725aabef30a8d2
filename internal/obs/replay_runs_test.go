package obs

import (
	"bytes"
	"strings"
	"testing"
)

// multiplexedTrace interleaves two run-tagged tracers on one sink, the way
// a serve instance's runs multiplex into one trace file. Span IDs restart
// at 1 in each tracer, so correct grouping requires keying begin events by
// run tag.
func multiplexedTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	ta := NewRunTracer(sink, "r-a")
	tb := NewRunTracer(sink, "r-b")
	sa := ta.Span("Search")
	sb := tb.Span("Search")
	sa.Point("tally", F("shard", 0), F("trials", 1), F("feasible", 1))
	sb.Point("tally", F("shard", 0), F("trials", 2), F("feasible", 0), F("rejects", map[string]int{"area": 2}))
	sa.Point("tally", F("shard", 1), F("trials", 1), F("feasible", 1))
	sb.End(F("trials", 2))
	sa.End(F("trials", 2))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestNewRunTracerStampsEvents(t *testing.T) {
	var buf bytes.Buffer
	sink := NewWriterSink(&buf)
	tr := NewRunTracer(sink, "r-42")
	sp := tr.Span("Run")
	sp.Point("trial", F("feasible", true))
	sp.End()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"run":"r-42"`); n != 3 {
		t.Fatalf("run tag on %d of 3 events:\n%s", n, buf.String())
	}
	// A nil sink still yields an inert tracer.
	if NewRunTracer(nil, "x") != nil {
		t.Fatal("NewRunTracer(nil) != nil")
	}
}

func TestReplayGroupsByRun(t *testing.T) {
	rep, err := Replay(multiplexedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 4 || rep.Feasible != 2 {
		t.Fatalf("aggregate trials=%d feasible=%d, want 4/2", rep.Trials, rep.Feasible)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("runs = %d, want 2: %+v", len(rep.Runs), rep.Runs)
	}
	ra, rb := rep.Runs["r-a"], rep.Runs["r-b"]
	if ra == nil || rb == nil {
		t.Fatalf("missing run sub-reports: %+v", rep.Runs)
	}
	if ra.Trials != 2 || ra.Feasible != 2 {
		t.Fatalf("r-a = %d/%d, want 2/2", ra.Trials, ra.Feasible)
	}
	if rb.Trials != 2 || rb.Feasible != 0 || rb.Reasons["area"] != 2 {
		t.Fatalf("r-b = %d trials %d feasible reasons %v", rb.Trials, rb.Feasible, rb.Reasons)
	}
	// Span durations must resolve per run despite colliding span IDs.
	if ra.Stages["Search"].Count != 1 || rb.Stages["Search"].Count != 1 {
		t.Fatalf("per-run Search stage wrong: a=%+v b=%+v", ra.Stages["Search"], rb.Stages["Search"])
	}
	if rep.Stages["Search"].Count != 2 {
		t.Fatalf("aggregate Search count = %d, want 2", rep.Stages["Search"].Count)
	}
}

func TestFormatStats(t *testing.T) {
	rep, err := Replay(multiplexedTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.FormatStats()
	for _, want := range []string{
		"trials: 4 examined, 2 feasible",
		"r-a",
		"r-b",
		"trial rate timeline",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
	// Untagged traces render without a per-run table.
	rep2, err := Replay(traceScript(t))
	if err != nil {
		t.Fatal(err)
	}
	out2 := rep2.FormatStats()
	if !strings.Contains(out2, "trials: 4 examined, 1 feasible") {
		t.Errorf("untagged stats report wrong:\n%s", out2)
	}
}

// TestFormatStatsMultiEpoch: every serve run has a tracer of its own, so a
// `chop serve -trace` file mixes tracer-relative clocks. Two tracers whose
// epochs lie 1.5 s apart must replay on one absolute time base: a ~1.5 s
// span and two one-second timeline buckets, not both runs folded into
// second 0.
func TestFormatStatsMultiEpoch(t *testing.T) {
	const epochA, epochB = int64(1_700_000_000_000_000_000), int64(1_700_000_001_500_000_000)
	var trace strings.Builder
	for _, tr := range []struct {
		run   string
		epoch int64
	}{{"r-a", epochA}, {"r-b", epochB}} {
		for _, ev := range []Event{
			{TNS: 1_000, Kind: KindBegin, Name: "Search", Span: 1},
			{TNS: 40_000, Kind: KindPoint, Name: "tally", Span: 1, Fields: map[string]any{"trials": 1, "feasible": 1}},
			{TNS: 90_000, Kind: KindPoint, Name: "tally", Span: 1, Fields: map[string]any{
				"trials": 1, "feasible": 0, "rejects": map[string]any{"area": 1}}},
			{TNS: 131_000, Kind: KindEnd, Name: "Search", Span: 1, DurNS: 130_000},
		} {
			ev.Run, ev.EpochNS = tr.run, tr.epoch
			trace.WriteString(line(t, ev))
		}
	}
	rep, err := Replay(strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	if span := rep.LastTNS - rep.FirstTNS; span != 1_500_130_000 {
		t.Fatalf("trace spans %d ns, want 1.50013 s", span)
	}
	out := rep.FormatStats()
	for _, want := range []string{
		"8 events over 1.50013s",
		"trials: 4 examined, 2 feasible, 3 trials/s avg",
		"     0s ",
		"     1s ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stats report missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, " trials      1 feasible"); n != 2 {
		t.Errorf("want two timeline buckets of 2 trials / 1 feasible, got %d:\n%s", n, out)
	}
}
