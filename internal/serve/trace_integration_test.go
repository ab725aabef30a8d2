package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/spec"
)

// lockedBuffer is an io.Writer safe for the concurrent emits a server
// trace sink sees.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDistributedTraceEndToEnd is the acceptance flow for cross-process
// trace correlation: a caller-rooted trace propagates over the serve API
// via traceparent, the server records its half (HTTP spans + the job run's
// full trace), and stitching the two JSONL files yields one rooted tree —
// caller span → HTTP span → job run → search spans — with zero orphans.
func TestDistributedTraceEndToEnd(t *testing.T) {
	serverBuf := &lockedBuffer{}
	s := New(Options{
		MaxConcurrent: 2,
		TraceSink:     obs.NewWriterSink(serverBuf),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(context.Background())
	}()

	// The "client process": its own tracer, its own JSONL file.
	var clientBuf bytes.Buffer
	ct := obs.New(obs.NewWriterSink(&clientBuf))
	root := ct.Span("client submit", obs.F("test", true))
	ctx := obs.WithTraceContext(context.Background(), root.Context())

	client := &Client{Base: ts.URL}
	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	st, err := client.Submit(ctx, SubmitSpec{Kind: "eval", Spec: raw})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != ct.TraceID() {
		t.Fatalf("run adopted trace %s, caller sent %s", st.TraceID, ct.TraceID())
	}
	final, err := client.Await(ctx, st.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("run ended %s: %s", final.State, final.Error)
	}
	root.End()

	traces, err := obs.Stitch([]obs.StitchSource{
		{Name: "client.jsonl", R: strings.NewReader(clientBuf.String())},
		{Name: "server.jsonl", R: strings.NewReader(serverBuf.String())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("stitched %d traces, want 1 (all spans share the caller's trace ID)", len(traces))
	}
	tr := traces[0]
	if tr.TraceID != ct.TraceID() {
		t.Fatalf("trace id %s, want %s", tr.TraceID, ct.TraceID())
	}
	if n := obs.OrphanCount(traces); n != 0 {
		t.Fatalf("%d orphan spans:\n%s", n, obs.FormatStitch(traces))
	}
	if len(tr.Roots) != 1 {
		t.Fatalf("%d roots, want the caller's span alone:\n%s", len(tr.Roots), obs.FormatStitch(traces))
	}
	caller := tr.Roots[0]
	if caller.Name != "client submit" || caller.Source != "client.jsonl" {
		t.Fatalf("root is %q from %s", caller.Name, caller.Source)
	}

	// Under the caller: the submit HTTP span (plus the Await polls' get_run
	// spans). Under the submit span: the job run's root span.
	var httpSubmit *obs.StitchSpan
	for _, c := range caller.Children {
		if c.Name == "http submit" {
			httpSubmit = c
		}
		if c.Source != "server.jsonl" {
			t.Errorf("caller child %q from %s, want server.jsonl", c.Name, c.Source)
		}
	}
	if httpSubmit == nil {
		t.Fatalf("no 'http submit' span under the caller:\n%s", obs.FormatStitch(traces))
	}
	var jobRoot *obs.StitchSpan
	for _, c := range httpSubmit.Children {
		if c.Run == st.ID {
			jobRoot = c
		}
	}
	if jobRoot == nil {
		t.Fatalf("job run %s not parented under the HTTP submit span:\n%s", st.ID, obs.FormatStitch(traces))
	}
	var hasSearch func(sp *obs.StitchSpan) bool
	hasSearch = func(sp *obs.StitchSpan) bool {
		if sp.Name == "Search" {
			return true
		}
		for _, c := range sp.Children {
			if hasSearch(c) {
				return true
			}
		}
		return false
	}
	if !hasSearch(jobRoot) {
		t.Fatalf("no Search span in the job's subtree:\n%s", obs.FormatStitch(traces))
	}

	// The waterfall and Perfetto export both render without error.
	if out := obs.FormatStitch(traces); !strings.Contains(out, "client submit") {
		t.Fatal("waterfall missing the caller's root span")
	}
	if _, err := obs.Perfetto(traces); err != nil {
		t.Fatalf("perfetto export: %v", err)
	}
}

// TestTracePropagationDoesNotChangeResults pins that wiring a tracer with a
// propagated remote context into the pipeline leaves the search results
// byte-identical to an untraced run.
func TestTracePropagationDoesNotChangeResults(t *testing.T) {
	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func(traced bool) []byte {
		prob, err := spec.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			prob.Config.Trace = obs.NewTracer(obs.NewCountingSink(), obs.TracerOptions{
				Run: "r-test",
				Context: obs.TraceContext{
					TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true,
				},
			})
		}
		res, _, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	plain := runOnce(false)
	traced := runOnce(true)
	if !bytes.Equal(plain, traced) {
		t.Fatal("search results differ with trace propagation enabled")
	}
}

// TestTraceHeadersAndSampling pins the HTTP identity surface: traceparent
// and X-Request-Id echo on every response, error envelopes carry the
// request id, a negative sample rate suppresses rooted-request spans, and
// error responses are recorded regardless ("always sample on error").
func TestTraceHeadersAndSampling(t *testing.T) {
	serverBuf := &lockedBuffer{}
	s := New(Options{
		TraceSink:       obs.NewWriterSink(serverBuf),
		TraceSampleRate: -1, // never head-sample server-rooted traces
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(context.Background())
	}()

	// A successful request: headers echo, but with sampling off no span is
	// recorded.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tp := resp.Header.Get(obs.TraceparentHeader)
	if _, err := obs.ParseTraceparent(tp); err != nil {
		t.Fatalf("response traceparent %q: %v", tp, err)
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("no X-Request-Id on response")
	}
	if got := serverBuf.String(); got != "" {
		t.Fatalf("unsampled 200 recorded a span: %s", got)
	}

	// An error request: always recorded, and the envelope names the request.
	resp, err = http.Get(ts.URL + "/api/v1/runs/r-999999")
	if err != nil {
		t.Fatal(err)
	}
	var ae struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ae.RequestID == "" || ae.RequestID != resp.Header.Get(RequestIDHeader) {
		t.Fatalf("error envelope request id %q, header %q", ae.RequestID, resp.Header.Get(RequestIDHeader))
	}
	if !strings.Contains(serverBuf.String(), `"http get_run"`) {
		t.Fatalf("404 span not recorded despite sampling off:\n%s", serverBuf.String())
	}

	// A caller-sampled traceparent wins over the negative rate.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	caller := obs.TraceContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Sampled: true}
	obs.InjectTraceparent(req.Header, caller)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echo, err := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if err != nil {
		t.Fatal(err)
	}
	if echo.TraceID != caller.TraceID || !echo.Sampled {
		t.Fatalf("echoed %+v, want caller trace %s sampled", echo, caller.TraceID)
	}
	if !strings.Contains(serverBuf.String(), caller.TraceID) {
		t.Fatal("caller-sampled request not recorded")
	}
}

// ewfSpec is the EWF three-partition enumeration of the benchmark's serve
// mix: the extended library on 84-pin chips under 90 µs bounds, 720
// trials.
func ewfSpec(t *testing.T) json.RawMessage {
	t.Helper()
	g := dfg.EllipticWaveFilter(16)
	f := &spec.File{
		Graph:        spec.GraphSpec{Name: g.Name},
		Library:      lib.ExtendedLibrary(),
		Chips:        chip.NewUniformSet(3, chip.MOSISPackages()[1], 4),
		MainClockNS:  300,
		DatapathMult: 10,
		TransferMult: 1,
		Perf:         spec.ConstraintSpec{Bound: 90000, MinProb: 1},
		Delay:        spec.ConstraintSpec{Bound: 90000, MinProb: 0.8},
		Heuristic:    "E",
	}
	for _, n := range g.Nodes {
		f.Graph.Nodes = append(f.Graph.Nodes, spec.NodeSpec{Name: n.Name, Op: n.Op, Width: n.Width, Mem: n.Mem})
	}
	for _, e := range g.Edges {
		f.Graph.Edges = append(f.Graph.Edges, [2]string{g.Nodes[e.From].Name, g.Nodes[e.To].Name})
	}
	for pi, set := range dfg.LevelPartitions(g, 3) {
		var names []string
		for _, id := range set {
			names = append(names, g.Nodes[id].Name)
		}
		f.Partitions = append(f.Partitions, names)
		f.PartChip = append(f.PartChip, pi)
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEvalEventsReplayToResult: an eval job's SSE trace stream, replayed
// with obs.Replay, gives the trial, feasible and per-reason rejection
// counts of the job's result, and the job's ring holds fewer events than
// the job examined trials, none of them overwritten.
func TestEvalEventsReplayToResult(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})
	client := &Client{Base: ts.URL}
	st, err := client.Submit(context.Background(), SubmitSpec{Kind: "eval", Spec: ewfSpec(t)})
	if err != nil {
		t.Fatal(err)
	}
	runURL := ts.URL + "/api/v1/runs/" + st.ID
	waitHTTPState(t, runURL, StateDone)
	var detail struct {
		RunStatus
		Result EvalResult `json:"result"`
	}
	getJSON(t, runURL, &detail)
	res := detail.Result
	if res.Trials < 100 {
		t.Fatalf("the eval examined %d trials, want at least 100", res.Trials)
	}

	resp, err := http.Get(runURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace strings.Builder
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "trace" {
			trace.WriteString(data + "\n")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	rep, err := obs.Replay(strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != res.Trials || rep.Feasible != res.FeasibleTrials {
		t.Fatalf("replay %d trials, %d feasible; result %d, %d", rep.Trials, rep.Feasible, res.Trials, res.FeasibleTrials)
	}
	rejects := map[string]int64{}
	for reason, n := range rep.Reasons {
		rejects[reason] = int64(n)
	}
	if len(res.Rejects) == 0 || !reflect.DeepEqual(rejects, res.Rejects) {
		t.Fatalf("replay rejects %v, result %v", rejects, res.Rejects)
	}
	t.Logf("%d trials, %d trace events retained, %d overwritten", res.Trials, detail.TraceEvents, detail.TraceDropped)
	if detail.TraceEvents >= res.Trials || detail.TraceDropped != 0 {
		t.Fatalf("the ring holds %d events with %d overwritten for %d trials; want fewer events than trials, none overwritten",
			detail.TraceEvents, detail.TraceDropped, res.Trials)
	}
}
