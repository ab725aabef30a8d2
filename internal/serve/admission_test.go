package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/spec"
)

func writeTenantFile(t *testing.T, tenants []TenantConfig) string {
	t.Helper()
	data, err := json.Marshal(map[string]any{"tenants": tenants})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTenants(t *testing.T) {
	good := []TenantConfig{
		{Name: "alpha", Key: "ka", MaxRunning: 2, MaxQueued: 4, RatePerSec: 10, Priority: 1},
		{Name: "beta", Key: "kb"},
	}
	loaded, err := LoadTenants(writeTenantFile(t, good))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 2 || loaded[0].Name != "alpha" || loaded[0].MaxRunning != 2 || loaded[1].Key != "kb" {
		t.Fatalf("loaded = %+v", loaded)
	}

	bad := []struct {
		name    string
		tenants []TenantConfig
	}{
		{"empty", nil},
		{"missing name", []TenantConfig{{Key: "k"}}},
		{"missing key", []TenantConfig{{Name: "a"}}},
		{"duplicate key", []TenantConfig{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
		{"duplicate name", []TenantConfig{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}},
	}
	for _, c := range bad {
		if _, err := LoadTenants(writeTenantFile(t, c.tenants)); err == nil {
			t.Errorf("%s: LoadTenants accepted an invalid keyfile", c.name)
		}
	}
	if _, err := LoadTenants(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing keyfile did not error")
	}
}

// postRunKey is postRun with an API key attached (empty: no credential).
func postRunKey(t *testing.T, ts *httptest.Server, body, key string) (RunStatus, *http.Response, apiError) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	var apiErr apiError
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		json.NewDecoder(resp.Body).Decode(&apiErr)
	}
	return st, resp, apiErr
}

// TestAdmissionRejectionPaths is the satellite table: every admission
// rejection maps onto its status code, machine-readable envelope reason,
// Retry-After header (where backpressure implies one) and serve.admission
// metric.
func TestAdmissionRejectionPaths(t *testing.T) {
	cases := []struct {
		name       string
		opts       Options
		setup      func(t *testing.T, ts *httptest.Server, started chan string)
		key        string
		status     int
		reason     string
		retryAfter bool
		metric     string
	}{
		{
			name: "missing key",
			opts: Options{Tenants: []TenantConfig{{Name: "a", Key: "ka"}}},
			key:  "", status: http.StatusUnauthorized, reason: "bad-key",
			metric: "serve.admission.rejected.bad_key",
		},
		{
			name: "unknown key",
			opts: Options{Tenants: []TenantConfig{{Name: "a", Key: "ka"}}},
			key:  "stolen", status: http.StatusUnauthorized, reason: "bad-key",
			metric: "serve.admission.rejected.bad_key",
		},
		{
			name: "over rate",
			opts: Options{Tenants: []TenantConfig{
				{Name: "a", Key: "ka", RatePerSec: 0.001, Burst: 1},
			}},
			setup: func(t *testing.T, ts *httptest.Server, started chan string) {
				// Burn the single token; the bucket refills at 1/1000s so the
				// next submit must be rejected with a large Retry-After.
				if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "ka"); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("setup submit = %d", resp.StatusCode)
				}
				<-started
			},
			key: "ka", status: http.StatusTooManyRequests, reason: "rate-limited",
			retryAfter: true, metric: "serve.admission.rejected.rate_limited",
		},
		{
			name: "over quota",
			opts: Options{
				MaxConcurrent: 1,
				Tenants: []TenantConfig{
					{Name: "a", Key: "ka", MaxQueued: 1},
					{Name: "b", Key: "kb"},
				},
			},
			setup: func(t *testing.T, ts *httptest.Server, started chan string) {
				// Tenant b occupies the only worker; tenant a fills its one
				// queued slot.
				if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "kb"); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("occupy submit = %d", resp.StatusCode)
				}
				<-started
				if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "ka"); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("queue submit = %d", resp.StatusCode)
				}
			},
			key: "ka", status: http.StatusTooManyRequests, reason: "over-quota",
			retryAfter: true, metric: "serve.admission.rejected.over_quota",
		},
		{
			name: "queue full",
			opts: Options{
				MaxConcurrent: 1, QueueDepth: 1,
				Tenants: []TenantConfig{{Name: "a", Key: "ka"}},
			},
			setup: func(t *testing.T, ts *httptest.Server, started chan string) {
				if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "ka"); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("occupy submit = %d", resp.StatusCode)
				}
				<-started
				if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "ka"); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("queue submit = %d", resp.StatusCode)
				}
			},
			key: "ka", status: http.StatusServiceUnavailable, reason: "queue-full",
			retryAfter: true, metric: "serve.admission.rejected.queue_full",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			started := make(chan string, 4)
			opts := c.opts
			opts.Jobs = blockingJobs(started)
			s, ts := newTestServer(t, opts)
			if c.setup != nil {
				c.setup(t, ts, started)
			}
			_, resp, apiErr := postRunKey(t, ts, `{"kind":"block"}`, c.key)
			if resp.StatusCode != c.status {
				t.Errorf("status = %d, want %d (envelope %+v)", resp.StatusCode, c.status, apiErr)
			}
			if apiErr.Reason != c.reason {
				t.Errorf("reason = %q, want %q", apiErr.Reason, c.reason)
			}
			if apiErr.Error == "" {
				t.Error("error envelope has no message")
			}
			ra := resp.Header.Get("Retry-After")
			if c.retryAfter {
				secs, err := strconv.Atoi(ra)
				if err != nil || secs < 1 {
					t.Errorf("Retry-After = %q, want a positive integer", ra)
				}
			} else if ra != "" {
				t.Errorf("unexpected Retry-After %q", ra)
			}
			if got := s.Registry().Metrics().Counter(c.metric); got != 1 {
				t.Errorf("%s = %d, want 1", c.metric, got)
			}
		})
	}
}

// TestAdmissionBearerToken: the Authorization: Bearer form of the
// credential is equivalent to X-API-Key.
func TestAdmissionBearerToken(t *testing.T) {
	started := make(chan string, 1)
	_, ts := newTestServer(t, Options{
		Jobs:    blockingJobs(started),
		Tenants: []TenantConfig{{Name: "a", Key: "sekrit"}},
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/runs",
		strings.NewReader(`{"kind":"block"}`))
	req.Header.Set("Authorization", "Bearer sekrit")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bearer submit = %d", resp.StatusCode)
	}
	var st RunStatus
	json.NewDecoder(resp.Body).Decode(&st)
	if st.Tenant != "a" {
		t.Errorf("run tenant = %q", st.Tenant)
	}
	<-started
}

// TestAdmissionKeyBeforeSpec: the key is checked before the submission is
// read, so a wrong key gets 401 bad-key whatever the kind and spec; with
// the right key a malformed spec gets 400 bad-spec and queues nothing.
func TestAdmissionKeyBeforeSpec(t *testing.T) {
	s, ts := newTestServer(t, Options{Tenants: []TenantConfig{{Name: "a", Key: "ka"}}})
	badSpec := `{"kind":"eval","spec":{"graph":{"name":"x"}}}`
	for _, body := range []string{badSpec, `{"kind":"nope"}`} {
		if _, resp, apiErr := postRunKey(t, ts, body, "stolen"); resp.StatusCode != http.StatusUnauthorized || apiErr.Reason != "bad-key" {
			t.Errorf("wrong key, %s: %d %q, want 401 bad-key", body, resp.StatusCode, apiErr.Reason)
		}
	}
	if _, resp, apiErr := postRunKey(t, ts, badSpec, "ka"); resp.StatusCode != http.StatusBadRequest || apiErr.Reason != "bad-spec" {
		t.Errorf("right key, bad spec: %d %q, want 400 bad-spec", resp.StatusCode, apiErr.Reason)
	}
	if occ := s.Registry().TenantOccupancies(); len(occ) != 1 || occ[0].Queued != 0 {
		t.Errorf("tenant occupancy after a bad spec = %+v, want 0 queued", occ)
	}
}

// TestAdmissionQuotaAfterSpec: the queue quota is counted in the queue
// after the spec is read. With its one queued slot taken, a tenant's
// malformed spec still gets 400 bad-spec, and a valid one gets 429
// over-quota and spends a rate token.
func TestAdmissionQuotaAfterSpec(t *testing.T) {
	started := make(chan string, 1)
	jobs := blockingJobs(started)
	jobs["eval"] = DefaultJobs()["eval"]
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 1,
		Jobs:          jobs,
		Tenants: []TenantConfig{
			{Name: "a", Key: "ka", MaxQueued: 1, RatePerSec: 0.001, Burst: 10},
			{Name: "b", Key: "kb"},
		},
	})
	// Tenant b occupies the only worker; tenant a fills its queued slot.
	if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "kb"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy submit = %d", resp.StatusCode)
	}
	<-started
	if _, resp, _ := postRunKey(t, ts, `{"kind":"block"}`, "ka"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue submit = %d", resp.StatusCode)
	}
	tokens := func() float64 {
		for _, occ := range s.Registry().TenantOccupancies() {
			if occ.Name == "a" {
				return occ.Tokens
			}
		}
		t.Fatal("tenant a missing from occupancy")
		return 0
	}
	badSpec := `{"kind":"eval","spec":{"graph":{"name":"x"}}}`
	if _, resp, apiErr := postRunKey(t, ts, badSpec, "ka"); resp.StatusCode != http.StatusBadRequest || apiErr.Reason != "bad-spec" {
		t.Errorf("bad spec over quota: %d %q, want 400 bad-spec", resp.StatusCode, apiErr.Reason)
	}
	before := tokens()
	if _, resp, apiErr := postRunKey(t, ts, `{"kind":"block"}`, "ka"); resp.StatusCode != http.StatusTooManyRequests || apiErr.Reason != "over-quota" {
		t.Errorf("valid spec over quota: %d %q, want 429 over-quota", resp.StatusCode, apiErr.Reason)
	}
	// The bucket refills at 0.001 a second: well under 0.01 in this test.
	if spent := before - tokens(); spent < 0.99 || spent > 1 {
		t.Errorf("over-quota submit spent %v tokens, want 1", spent)
	}
	if occ := s.Registry().TenantOccupancies(); occ[0].Queued != 1 || occ[0].Running != 0 || occ[1].Running != 1 {
		t.Errorf("occupancy = %+v, want a 1 queued, b 1 running", occ)
	}
}

// TestAdmissionClientRoundTrip: serve.Client presents its APIKey, typed
// *APIError carries the rejection reason and Retry-After, and the stats
// payload reports tenant occupancy.
func TestAdmissionClientRoundTrip(t *testing.T) {
	started := make(chan string, 1)
	_, ts := newTestServer(t, Options{
		Jobs: blockingJobs(started),
		Tenants: []TenantConfig{
			{Name: "a", Key: "ka", RatePerSec: 0.001, Burst: 1, Priority: 3},
		},
	})
	ctx := context.Background()
	c := &Client{Base: ts.URL, APIKey: "ka"}
	st, err := c.Submit(ctx, SubmitSpec{Kind: "block"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "a" || st.Priority != 3 {
		t.Errorf("accepted status = %+v", st)
	}
	<-started
	_, err = c.Submit(ctx, SubmitSpec{Kind: "block"})
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("rate-limited submit error = %v, want *APIError", err)
	}
	if ae.Status != http.StatusTooManyRequests || ae.Reason != "rate-limited" || ae.RetryAfter < time.Second {
		t.Errorf("APIError = %+v", ae)
	}
	// Wrong key is a typed 401 too.
	bad := &Client{Base: ts.URL, APIKey: "wrong"}
	if _, err := bad.Submit(ctx, SubmitSpec{Kind: "block"}); !errors.As(err, &ae) || ae.Reason != "bad-key" {
		t.Errorf("bad-key submit error = %v", err)
	}
	var stats ServerStats
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if len(stats.Tenants) != 1 || stats.Tenants[0].Name != "a" || stats.Tenants[0].Running != 1 {
		t.Errorf("stats tenants = %+v", stats.Tenants)
	}
	if ok, err := c.Cancel(ctx, st.ID); err != nil || !ok {
		t.Fatalf("cancel: %v %v", ok, err)
	}
}

// searchJobs maps "search" onto a real core search returning the raw
// deterministic core.SearchResult (no timing fields), so results can be
// compared byte-for-byte across preemption. It decodes its spec at submit,
// so a resumed run re-runs the problem decoded then. "instant" is the
// preemptor.
func searchJobs() map[string]Job {
	return map[string]Job{
		"instant": rawJob(func(ctx context.Context, _ json.RawMessage, _ JobContext) (any, error) {
			return "ok", nil
		}),
		"search": func(raw json.RawMessage) (JobFunc, error) {
			prob, err := spec.Parse(raw)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, jc JobContext) (any, error) {
				cfg := prob.Config
				cfg.Ctx = ctx
				cfg.Metrics = jc.Metrics
				cfg.Stats = jc.Stats
				cfg.Inject = jc.Inject
				if jc.Checkpoint != "" {
					cfg.CheckpointPath = jc.Checkpoint
					cfg.Resume = true
				}
				res, _, err := core.Run(prob.Partitioning, cfg, prob.Heuristic)
				if err != nil {
					return nil, err
				}
				return res, nil
			}, nil
		},
	}
}

// searchSpec renders the example problem as a serial enumeration search:
// 25 trials over several checkpoint shards, fully deterministic.
func searchSpec(t *testing.T) ([]byte, core.SearchResult) {
	t.Helper()
	f := spec.Example()
	f.Heuristic = "E"
	f.Workers = 1
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	if err != nil {
		t.Fatal(err)
	}
	if want.Trials < 10 {
		t.Fatalf("reference search too small to interrupt (%d trials)", want.Trials)
	}
	return raw, want
}

// TestPreemptResumeByteIdentical extends the PR 5 checkpoint-identity
// guarantee across the scheduler: a low-priority checkpointable run is
// displaced mid-search by a high-priority submission, requeued, resumed
// from its flushed checkpoint, and still produces a result byte-identical
// to an uninterrupted run.
func TestPreemptResumeByteIdentical(t *testing.T) {
	leakCheck(t)
	raw, want := searchSpec(t)
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	// A 2s stall injected near the end of the search holds it mid-flight —
	// with most shards complete — long enough for the preemption below to
	// land deterministically.
	ckptDir := t.TempDir()
	m := obs.NewMetrics()
	inj := resilience.MustParse(fmt.Sprintf("core.trial=stall:@%d:2s", want.Trials-5))
	r := NewRegistry(Options{
		MaxConcurrent: 1,
		Jobs:          searchJobs(),
		Metrics:       m,
		CheckpointDir: ckptDir,
		Tenants: []TenantConfig{
			{Name: "batch", Key: "lo", Priority: 0},
			{Name: "interactive", Key: "hi", Priority: 10},
		},
		Inject: inj,
	})
	defer r.Shutdown(context.Background())

	victim, err := r.SubmitWith("search", raw, SubmitOptions{APIKey: "lo", Checkpoint: "search.ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, victim, StateRunning)
	// Wait until the search is inside the stalled trial, so the preemption
	// lands while it is held there with completed shards to save. The
	// injector says so directly: run stats only show a shard's trials once
	// the shard ends.
	deadline := time.Now().Add(10 * time.Second)
	for inj.Fired("core.trial") == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("search never reached the stall (trials=%d)",
				victim.Stats().Snapshot().Trials)
		}
		time.Sleep(2 * time.Millisecond)
	}
	preemptor, err := r.SubmitWith("instant", nil, SubmitOptions{APIKey: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	// The high-priority run must displace the victim and complete first.
	waitState(t, preemptor, StateDone)
	waitState(t, victim, StateDone)

	st := victim.Status(true)
	if st.Preemptions != 1 {
		t.Errorf("victim preemptions = %d, want 1", st.Preemptions)
	}
	if st.Tenant != "batch" {
		t.Errorf("victim tenant = %q", st.Tenant)
	}
	if n := m.Counter("serve.admission.preempted"); n != 1 {
		t.Errorf("serve.admission.preempted = %d, want 1", n)
	}
	if n := m.Counter("resilience.checkpoint_resumed_shards"); n == 0 {
		t.Error("resume restored no shards; preemption identity test is vacuous")
	}
	gotJSON, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("preempted+resumed result not byte-identical:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// A successful resumed search consumes its checkpoint.
	if _, err := os.Stat(filepath.Join(ckptDir, "search.ckpt")); !os.IsNotExist(err) {
		t.Errorf("checkpoint not removed after success: %v", err)
	}
	// All admission slots returned.
	for _, occ := range r.TenantOccupancies() {
		if occ.Running != 0 || occ.Queued != 0 {
			t.Errorf("tenant %s leaked slots: %+v", occ.Name, occ)
		}
	}
}

// TestJobDecodesOncePerSubmission: a run kind decodes its spec once per
// accepted submission. A preempted run runs the body it decoded again
// instead of decoding its spec twice, and a terminal run, canceled or done,
// holds no body.
func TestJobDecodesOncePerSubmission(t *testing.T) {
	leakCheck(t)
	var decodes, bodies atomic.Int64
	held := make(chan struct{}, 1)
	jobs := map[string]Job{
		"count": func(json.RawMessage) (JobFunc, error) {
			decodes.Add(1)
			return func(ctx context.Context, _ JobContext) (any, error) {
				if bodies.Add(1) == 1 {
					held <- struct{}{}
					<-ctx.Done() // the first run is held until preempted
					return nil, ctx.Err()
				}
				return "ok", nil
			}, nil
		},
		"instant": rawJob(func(context.Context, json.RawMessage, JobContext) (any, error) {
			return "ok", nil
		}),
	}
	r := NewRegistry(Options{
		MaxConcurrent: 1,
		Jobs:          jobs,
		CheckpointDir: t.TempDir(),
		Tenants: []TenantConfig{
			{Name: "batch", Key: "lo", Priority: 0},
			{Name: "interactive", Key: "hi", Priority: 10},
		},
	})
	defer r.Shutdown(context.Background())
	hasBody := func(run *Run) bool {
		run.mu.Lock()
		defer run.mu.Unlock()
		return run.body != nil
	}

	victim, err := r.SubmitWith("count", nil, SubmitOptions{APIKey: "lo", Checkpoint: "count.ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	queued, err := r.SubmitWith("count", nil, SubmitOptions{APIKey: "lo"})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Cancel(queued.ID()); !ok || err != nil {
		t.Fatalf("cancel queued: %v %v", ok, err)
	}
	waitState(t, queued, StateCanceled)
	if hasBody(queued) {
		t.Error("canceled run still holds its body")
	}
	preemptor, err := r.SubmitWith("instant", nil, SubmitOptions{APIKey: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, preemptor, StateDone)
	waitState(t, victim, StateDone)

	if n := victim.Status(false).Preemptions; n != 1 {
		t.Fatalf("victim preemptions = %d, want 1", n)
	}
	if d, b := decodes.Load(), bodies.Load(); d != 2 || b != 2 {
		t.Errorf("2 submissions, one preempted: %d decodes and %d body runs, want 2 and 2", d, b)
	}
	if hasBody(victim) || hasBody(preemptor) {
		t.Error("done run still holds its body")
	}
}

// TestPreemptionOnlyVictimizesCheckpointable: a running run without a
// checkpoint must never be displaced — preemption would lose its work.
func TestPreemptionOnlyVictimizesCheckpointable(t *testing.T) {
	leakCheck(t)
	started := make(chan string, 2)
	r := NewRegistry(Options{
		MaxConcurrent: 1,
		Jobs:          blockingJobs(started),
		Tenants: []TenantConfig{
			{Name: "lo", Key: "lo", Priority: 0},
			{Name: "hi", Key: "hi", Priority: 10},
		},
	})
	defer r.Shutdown(context.Background())
	victim, err := r.SubmitWith("block", nil, SubmitOptions{APIKey: "lo"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	urgent, err := r.SubmitWith("block", nil, SubmitOptions{APIKey: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	// The high-priority run must wait: no checkpoint, no preemption.
	time.Sleep(50 * time.Millisecond)
	if st := urgent.Status(false); st.State != StateQueued {
		t.Fatalf("urgent run state = %s, want queued (victim has no checkpoint)", st.State)
	}
	if st := victim.Status(false); st.State != StateRunning || st.Preemptions != 0 {
		t.Fatalf("victim state = %+v", st)
	}
	r.Cancel(victim.ID())
	waitState(t, victim, StateCanceled)
	<-started // urgent dispatched after the slot freed
	r.Cancel(urgent.ID())
	waitState(t, urgent, StateCanceled)
}

// TestAdmissionChaos is the satellite chaos suite: concurrent submit
// bursts across 3 tenants of different priority classes — checkpointable
// and not, cancels racing preemption racing a mid-burst drain. Afterward
// no slot may leak: every accepted run terminal, pool occupancy and every
// tenant's running/queued accounting back at zero.
func TestAdmissionChaos(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{
		MaxConcurrent: 2, QueueDepth: 16,
		Jobs:          chaosJobs(),
		Metrics:       m,
		CheckpointDir: t.TempDir(),
		Tenants: []TenantConfig{
			{Name: "gold", Key: "kg", Priority: 2, MaxRunning: 2, MaxQueued: 8},
			{Name: "silver", Key: "ks", Priority: 1, MaxRunning: 1, MaxQueued: 4},
			{Name: "bronze", Key: "kb", Priority: 0, MaxQueued: 8, RatePerSec: 500},
		},
	})

	var (
		mu       sync.Mutex
		accepted []*Run
	)
	track := func(run *Run) {
		mu.Lock()
		accepted = append(accepted, run)
		mu.Unlock()
	}
	// Deterministic prelude: both slots held by checkpointable bronze
	// stalls, then a gold submission — a guaranteed preemption, so the
	// suite always exercises the preempt-requeue path before the random
	// interleavings take over.
	for i := 0; i < 2; i++ {
		run, err := r.SubmitWith("stall", nil, SubmitOptions{
			APIKey: "kb", Checkpoint: fmt.Sprintf("pre-%d.ckpt", i),
			Timeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		track(run)
		waitState(t, run, StateRunning)
	}
	first, err := r.SubmitWith("instant", nil, SubmitOptions{APIKey: "kg"})
	if err != nil {
		t.Fatal(err)
	}
	track(first)
	waitState(t, first, StateDone)

	keys := []string{"kg", "ks", "kb"}
	kinds := []string{"instant", "stall", "stall", "stall", "fail", "explode"}
	rng := rand.New(rand.NewSource(23))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		seed := rng.Int63()
		key := keys[g%len(keys)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				opts := SubmitOptions{
					APIKey:  key,
					Timeout: time.Duration(10+prng.Intn(50)) * time.Millisecond,
				}
				// Most stalls are checkpointable, making them preemption
				// victims for higher-priority submissions.
				if prng.Intn(4) != 0 {
					opts.Checkpoint = fmt.Sprintf("%s-%d.ckpt", key, prng.Intn(4))
				}
				run, err := r.SubmitWith(kinds[prng.Intn(len(kinds))], nil, opts)
				if err != nil {
					continue // rate/quota/queue/draining rejections are expected
				}
				track(run)
				if prng.Intn(4) == 0 {
					r.Cancel(run.ID())
				}
				time.Sleep(time.Duration(prng.Intn(2)) * time.Millisecond)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if len(accepted) == 0 {
		t.Fatal("chaos burst accepted no runs; test is vacuous")
	}
	for _, run := range accepted {
		if st := run.Status(false); !st.State.Terminal() {
			t.Errorf("run %s stuck in %s (tenant %s, preemptions %d)",
				st.ID, st.State, st.Tenant, st.Preemptions)
		}
	}
	if qn := r.QueueLen(); qn != 0 {
		t.Errorf("queue not empty after drain: %d", qn)
	}
	if n := r.CountByState()[StateRunning]; n != 0 {
		t.Errorf("%d runs counted as running after drain", n)
	}
	checkCountByState(t, r)
	for _, occ := range r.TenantOccupancies() {
		if occ.Running != 0 || occ.Queued != 0 {
			t.Errorf("tenant %s leaked admission slots: running=%d queued=%d",
				occ.Name, occ.Running, occ.Queued)
		}
	}
	if m.Counter("serve.admission.preempted") == 0 {
		t.Error("chaos exercised no preemption; suite is vacuous")
	}
	t.Logf("chaos: %d accepted, preempted=%d admitted=%d rejected(rate=%d quota=%d full=%d)",
		len(accepted),
		m.Counter("serve.admission.preempted"),
		m.Counter("serve.admission.admitted"),
		m.Counter("serve.admission.rejected.rate_limited"),
		m.Counter("serve.admission.rejected.over_quota"),
		m.Counter("serve.admission.rejected.queue_full"))
}

// TestTenantQuotaProperty is the satellite property test, mirroring the
// E-vs-I feasibility style: for any randomized interleaving of submits and
// cancels, a tenant with MaxRunning Q never observes more than Q of its
// jobs executing simultaneously. The jobs themselves count concurrency per
// tenant, so the check sees every scheduling decision, not samples of it.
func TestTenantQuotaProperty(t *testing.T) {
	iterations := 1000
	if testing.Short() {
		iterations = 100
	}
	quotas := map[string]int64{"q1": 1, "q2": 2}
	var inFlight, maxSeen sync.Map
	for tenant := range quotas {
		inFlight.Store(tenant, new(atomic.Int64))
		maxSeen.Store(tenant, new(atomic.Int64))
	}
	jobs := map[string]Job{
		"work": rawJob(func(ctx context.Context, raw json.RawMessage, _ JobContext) (any, error) {
			tenant := string(raw)
			cur, _ := inFlight.Load(tenant)
			peak, _ := maxSeen.Load(tenant)
			n := cur.(*atomic.Int64).Add(1)
			for {
				m := peak.(*atomic.Int64).Load()
				if n <= m || peak.(*atomic.Int64).CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Duration(100+n*50) * time.Microsecond)
			cur.(*atomic.Int64).Add(-1)
			return nil, nil
		}),
	}
	base := time.Now().UnixNano()
	for i := 0; i < iterations; i++ {
		seed := base + int64(i)
		prng := rand.New(rand.NewSource(seed))
		r := NewRegistry(Options{
			MaxConcurrent: 4, QueueDepth: 32, Jobs: jobs,
			Tenants: []TenantConfig{
				{Name: "q1", Key: "k1", MaxRunning: 1},
				{Name: "q2", Key: "k2", MaxRunning: 2},
			},
		})
		var accepted []*Run
		for op := 0; op < 12; op++ {
			switch {
			case prng.Intn(4) == 0 && len(accepted) > 0:
				r.Cancel(accepted[prng.Intn(len(accepted))].ID())
			default:
				key, tenant := "k1", "q1"
				if prng.Intn(2) == 0 {
					key, tenant = "k2", "q2"
				}
				run, err := r.SubmitWith("work", json.RawMessage(tenant), SubmitOptions{APIKey: key})
				if err == nil {
					accepted = append(accepted, run)
				}
			}
		}
		r.Shutdown(context.Background())
		for tenant, q := range quotas {
			peak, _ := maxSeen.Load(tenant)
			if got := peak.(*atomic.Int64).Load(); got > q {
				t.Fatalf("seed %d: tenant %s ran %d jobs concurrently, quota %d",
					seed, tenant, got, q)
			}
		}
	}
}

// TestPriorityDispatchOrder: queued runs dispatch by priority class, FIFO
// within a class — and a preempted run keeps its original position.
func TestPriorityDispatchOrder(t *testing.T) {
	leakCheck(t)
	started := make(chan string, 8)
	r := NewRegistry(Options{
		MaxConcurrent: 1,
		Jobs:          blockingJobs(started),
		Tenants: []TenantConfig{
			{Name: "lo", Key: "lo", Priority: 0},
			{Name: "hi", Key: "hi", Priority: 5},
		},
	})
	defer r.Shutdown(context.Background())
	// Occupy the worker, then queue lo-1, hi-1, lo-2: dispatch order must
	// be hi-1, lo-1, lo-2.
	gate, err := r.SubmitWith("block", json.RawMessage(`"gate"`), SubmitOptions{APIKey: "lo"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	submit := func(key, tag string) *Run {
		run, err := r.SubmitWith("block", json.RawMessage(`"`+tag+`"`), SubmitOptions{APIKey: key})
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	runs := []*Run{submit("lo", "lo-1"), submit("hi", "hi-1"), submit("lo", "lo-2")}
	var order []string
	next := func() string {
		r.Cancel(gate.ID())
		tag := <-started
		return strings.Trim(tag, `"`)
	}
	for i := 0; i < 3; i++ {
		tag := next()
		order = append(order, tag)
		for _, run := range runs {
			if string(run.Status(true).Spec) == `"`+tag+`"` {
				gate = run
			}
		}
	}
	r.Cancel(gate.ID())
	if want := []string{"hi-1", "lo-1", "lo-2"}; !slicesEqual(order, want) {
		t.Fatalf("dispatch order = %v, want %v", order, want)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
