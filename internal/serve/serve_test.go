package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chop/internal/spec"
)

// newTestServer builds a Server (default jobs unless overridden) and an
// httptest front end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain(context.Background())
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// exampleSpecBody renders a POST body around the paper's example spec (the
// 2-partition AR-filter setup, iterative heuristic — milliseconds of work).
func exampleSpecBody(t *testing.T) string {
	t.Helper()
	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"kind":"eval","spec":%s}`, raw)
}

func waitHTTPState(t *testing.T, url string, want State) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st RunStatus
		getJSON(t, url, &st)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("run terminal in %s (err %q) while waiting for %s", st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run never reached %s", want)
	return RunStatus{}
}

// TestServeEndToEnd is the acceptance flow: submit an eval run over HTTP,
// watch it complete, stream its trace as SSE, and scrape /metrics for both
// pipeline and server families.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 2})

	// Health endpoints are live before any run.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d", resp.StatusCode)
	}

	st, resp := postRun(t, ts, exampleSpecBody(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if st.ID == "" || st.State != StateQueued {
		t.Fatalf("submit returned %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/runs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}

	runURL := ts.URL + "/api/v1/runs/" + st.ID
	final := waitHTTPState(t, runURL, StateDone)
	if final.Started == nil || final.Finished == nil {
		t.Fatalf("missing timestamps: %+v", final)
	}
	// The detail view carries the eval result.
	var detail struct {
		RunStatus
		Result EvalResult `json:"result"`
	}
	getJSON(t, runURL, &detail)
	if !detail.Result.Feasible || detail.Result.Trials == 0 || len(detail.Result.Best) == 0 {
		t.Fatalf("unexpected eval result: %+v", detail.Result)
	}
	if detail.Result.Graph == "" || detail.Result.Partitions != 2 {
		t.Fatalf("result metadata wrong: %+v", detail.Result)
	}
	if detail.TraceEvents == 0 {
		t.Fatal("no trace events retained in the ring")
	}

	// The list view includes the run without its result payload.
	var list struct{ Runs []RunStatus }
	getJSON(t, ts.URL+"/api/v1/runs", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// SSE: the finished run replays its ring, then closes with `done`.
	sseResp, err := http.Get(runURL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	if ct := sseResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	traceEvents, doneEvents := 0, 0
	sc := bufio.NewScanner(sseResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: trace":
			traceEvents++
		case line == "event: done":
			doneEvents++
		}
	}
	if traceEvents < 1 {
		t.Fatalf("received %d SSE trace events, want >= 1", traceEvents)
	}
	if doneEvents != 1 {
		t.Fatalf("received %d done events, want 1", doneEvents)
	}

	// /metrics: pipeline counters (merged from the run), the server
	// request-latency histogram, and the build-info gauge.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	body, _ := io.ReadAll(mResp.Body)
	for _, want := range []string{
		"# TYPE chop_core_trials counter",
		"# TYPE chop_serve_http_request_us histogram",
		"chop_serve_http_submit_us_count 1",
		"# TYPE chop_build_info gauge",
		`chop_serve_runs{state="done"} 1`,
		"chop_serve_runs_done 1",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTerminalStateBeforeSSEDone: the registry publishes a run's terminal
// state before it ends the event stream, so neither the SSE done event nor
// a GET issued right after it ever reads a non-terminal state.
func TestTerminalStateBeforeSSEDone(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 2})
	body := exampleSpecBody(t)
	for i := 0; i < 100; i++ {
		st, resp := postRun(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("run %d: submit status = %d", i, resp.StatusCode)
		}
		runURL := ts.URL + "/api/v1/runs/" + st.ID
		sse, err := http.Get(runURL + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var done RunStatus
		sawDone := false
		sc := bufio.NewScanner(sse.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "event: done" {
				sawDone = true
			} else if data, ok := strings.CutPrefix(line, "data: "); ok && sawDone {
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					t.Fatalf("run %d: decode done event: %v", i, err)
				}
				break
			}
		}
		sse.Body.Close()
		if !sawDone {
			t.Fatalf("run %d: event stream ended without done", i)
		}
		var got RunStatus
		getJSON(t, runURL, &got)
		if !done.State.Terminal() || !got.State.Terminal() {
			t.Fatalf("run %d: done event state %q, GET after done %q", i, done.State, got.State)
		}
	}
}

func TestServeSSELiveStream(t *testing.T) {
	// A blocking job emits one span, then waits: the SSE client must see
	// the trace live (before the run ends), then the done event after
	// cancellation.
	started := make(chan string, 1)
	s, ts := newTestServer(t, Options{MaxConcurrent: 1, Jobs: blockingJobs(started)})
	var st RunStatus
	st, _ = postRun(t, ts, `{"kind":"block"}`)
	<-started

	sseResp, err := http.Get(ts.URL + "/api/v1/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sc := bufio.NewScanner(sseResp.Body)
	sawTrace := false
	for sc.Scan() {
		if sc.Text() == "event: trace" {
			sawTrace = true
			break
		}
	}
	if !sawTrace {
		t.Fatal("no live trace event while the run was in flight")
	}
	// Cancel the run: the stream must terminate with `done`.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+st.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	sawDone := false
	for sc.Scan() {
		if sc.Text() == "event: done" {
			sawDone = true
		}
	}
	if !sawDone {
		t.Fatal("stream did not end with a done event after cancellation")
	}
	if s.Registry().Metrics().Counter("serve.runs.canceled") != 1 {
		t.Error("canceled counter missing")
	}
}

func TestServeSubmitErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})
	cases := []struct {
		name, body string
		status     int
		reason     string
	}{
		{"unknown kind", `{"kind":"nope"}`, http.StatusBadRequest, "unknown-kind"},
		{"bad spec", `{"kind":"eval","spec":{"graph":{"name":"x"}}}`, http.StatusBadRequest, "bad-spec"},
		{"missing spec", `{"kind":"eval"}`, http.StatusBadRequest, "bad-spec"},
		{"malformed body", `{`, http.StatusBadRequest, "bad-request"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr apiError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != c.status || apiErr.Reason != c.reason {
			t.Errorf("%s: status=%d reason=%q (err %q), want %d %q",
				c.name, resp.StatusCode, apiErr.Reason, apiErr.Error, c.status, c.reason)
		}
	}
	// Unknown run id across GET/DELETE/events.
	for _, url := range []string{"/api/v1/runs/r-404", "/api/v1/runs/r-404/events"} {
		if resp := getJSON(t, ts.URL+url, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestServeGracefulShutdown: draining flips /readyz to 503, rejects new
// submissions, and cancels in-flight runs.
func TestServeGracefulShutdown(t *testing.T) {
	started := make(chan string, 1)
	s := New(Options{MaxConcurrent: 1, Jobs: blockingJobs(started), ShutdownGrace: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, _ := postRun(t, ts, `{"kind":"block"}`)
	<-started

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain = %d, want 503", resp.StatusCode)
	}
	// Liveness stays green while draining.
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after drain = %d, want 200", resp.StatusCode)
	}
	var final RunStatus
	getJSON(t, ts.URL+"/api/v1/runs/"+st.ID, &final)
	if final.State != StateCanceled {
		t.Fatalf("in-flight run state after drain = %s, want canceled", final.State)
	}
	if _, resp := postRun(t, ts, `{"kind":"block"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}

func TestServePprofWired(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("heap profile")) {
		t.Fatalf("pprof heap: status %d, body %.80s", resp.StatusCode, body)
	}
	if resp := getJSON(t, ts.URL+"/debug/pprof/cmdline", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", resp.StatusCode)
	}
}

// TestServeExperimentRun drives the exp1 job through the API (short but
// real pipeline work: the paper's Tables 3 and 4).
func TestServeExperimentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})
	st, resp := postRun(t, ts, `{"kind":"exp1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	waitHTTPState(t, ts.URL+"/api/v1/runs/"+st.ID, StateDone)
	var detail struct {
		Result ExpResult `json:"result"`
	}
	getJSON(t, ts.URL+"/api/v1/runs/"+st.ID, &detail)
	if detail.Result.Experiment != 1 || len(detail.Result.Counts) == 0 || len(detail.Result.Results) == 0 {
		t.Fatalf("exp1 result = %+v", detail.Result)
	}
	if detail.Result.Tables["table3"] == "" {
		t.Fatal("rendered table missing")
	}
}
