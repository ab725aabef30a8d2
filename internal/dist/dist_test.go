package dist

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/serve"
	"chop/internal/spec"
)

// exampleSpec renders the example problem with the given heuristic letter.
func exampleSpec(t *testing.T, heuristic string) []byte {
	t.Helper()
	f := spec.Example()
	f.Heuristic = heuristic
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// startWorker runs an in-process serve plane behind an httptest listener.
func startWorker(t *testing.T, opts serve.Options) *httptest.Server {
	t.Helper()
	if opts.MaxConcurrent == 0 {
		opts.MaxConcurrent = 2
	}
	s := serve.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts
}

// serialJSON computes the Workers=1 serial reference result for a spec.
func serialJSON(t *testing.T, raw []byte) string {
	t.Helper()
	prob, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	cfg := prob.Config
	cfg.Workers = 1
	res, _, err := core.Run(prob.Partitioning, cfg, prob.Heuristic)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

// fastOpts is a test-friendly option base: quick polls, tight submit
// budget, and the metrics registry the assertions read.
func fastOpts(m *obs.Metrics, workers ...string) Options {
	return Options{
		Workers:      workers,
		Poll:         15 * time.Millisecond,
		SubmitBudget: 2 * time.Second,
		Metrics:      m,
		Log:          testLogger(),
	}
}

// runDist builds and runs a coordinator, asserting success, and returns
// the merged result as JSON.
func runDist(t *testing.T, raw []byte, o Options) string {
	t.Helper()
	c, err := New(raw, o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, preds, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if len(preds) == 0 {
		t.Fatalf("no predictions returned")
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func counter(t *testing.T, m *obs.Metrics, name string) int64 {
	t.Helper()
	return m.Snapshot().Counters[name]
}

// TestDistMatchesSerialBothHeuristics: a healthy two-worker fleet merges
// byte-identical to the serial search for both heuristics.
func TestDistMatchesSerialBothHeuristics(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{})
	for _, h := range []string{"E", "I"} {
		raw := exampleSpec(t, h)
		want := serialJSON(t, raw)
		m := obs.NewMetrics()
		o := fastOpts(m, w1.URL, w2.URL)
		o.Shards = 6
		got := runDist(t, raw, o)
		if got != want {
			t.Fatalf("heuristic %s: distributed result diverged from serial\nserial: %s\ndist:   %s", h, want, got)
		}
		if g := counter(t, m, "dist.leases.granted"); g < 2 {
			t.Fatalf("heuristic %s: want >= 2 leases granted, got %d", h, g)
		}
		if a := counter(t, m, "dist.results.accepted"); a == 0 {
			t.Fatalf("heuristic %s: no shards accepted", h)
		}
	}
}

// TestDistWorkerFailureRecovery: a worker whose first job fails (injected)
// gets its lease reassigned and the merged result still matches serial.
func TestDistWorkerFailureRecovery(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{Inject: resilience.MustParse("serve.job=error:@1")})
	raw := exampleSpec(t, "E")
	want := serialJSON(t, raw)
	m := obs.NewMetrics()
	o := fastOpts(m, w1.URL, w2.URL)
	o.Shards = 6
	got := runDist(t, raw, o)
	if got != want {
		t.Fatalf("result diverged from serial after worker failure")
	}
	if f := counter(t, m, "dist.workers.failed"); f == 0 {
		t.Fatalf("injected job fault produced no worker failure")
	}
	if r := counter(t, m, "dist.shards.reassigned"); r == 0 {
		t.Fatalf("failed lease was not reassigned")
	}
}

// TestDistDeadWorkerQuarantined: a worker that is down from the start
// (connection refused) is quarantined after repeated failures and the
// fleet completes on the survivors.
func TestDistDeadWorkerQuarantined(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	raw := exampleSpec(t, "I")
	want := serialJSON(t, raw)
	m := obs.NewMetrics()
	o := fastOpts(m, w1.URL, deadURL)
	got := runDist(t, raw, o)
	if got != want {
		t.Fatalf("result diverged from serial with a dead worker")
	}
	if q := counter(t, m, "dist.workers.quarantined"); q != 1 {
		t.Fatalf("want 1 quarantined worker, got %d", q)
	}
}

// TestDistWorkerKilledMidSearch: a worker dies (listener closed) while its
// lease is in flight; polls fail, the lease is reassigned, and the merged
// result is byte-identical to serial.
func TestDistWorkerKilledMidSearch(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	// The doomed worker stalls its job so the lease is reliably in flight
	// when the listener dies. No cleanup registration: closed manually.
	s2 := serve.New(serve.Options{MaxConcurrent: 2,
		Inject: resilience.MustParse("serve.job=stall:1:3s")})
	w2 := httptest.NewServer(s2.Handler())
	raw := exampleSpec(t, "E")
	want := serialJSON(t, raw)
	m := obs.NewMetrics()
	o := fastOpts(m, w1.URL, w2.URL)
	o.Shards = 6
	c, err := New(raw, o)
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		// Let the grant land, then kill the worker's listener mid-lease.
		time.Sleep(150 * time.Millisecond)
		w2.CloseClientConnections()
		w2.Close()
		close(killed)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, _, err := c.Run(ctx)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	<-killed
	got, _ := json.Marshal(res)
	if string(got) != want {
		t.Fatalf("result diverged from serial after mid-search worker death")
	}
	if f := counter(t, m, "dist.workers.failed"); f == 0 {
		t.Fatalf("killed worker produced no failure")
	}
	if r := counter(t, m, "dist.shards.reassigned"); r == 0 {
		t.Fatalf("killed worker's shards were not reassigned")
	}
}

// TestDistSupersededEpochRejected is the fencing proof: a stalled worker
// keeps its run alive past the lease hard cap, the lease expires and its
// shards are reassigned and completed elsewhere, and when the straggler's
// result finally arrives it is rejected with the superseded counter — it
// never corrupts the merge.
func TestDistSupersededEpochRejected(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	// The stall outlives the 300ms lease hard cap (so the lease expires)
	// but not the 4 x MaxLease server-side timeout backstop (so the run
	// still completes and delivers its late, fenced-out result).
	w2 := startWorker(t, serve.Options{MaxConcurrent: 2,
		Inject: resilience.MustParse("serve.job=stall:1:700ms")})
	for _, h := range []string{"E", "I"} {
		raw := exampleSpec(t, h)
		want := serialJSON(t, raw)
		m := obs.NewMetrics()
		o := fastOpts(m, w1.URL, w2.URL)
		o.Shards = 6
		o.LeaseTTL = 150 * time.Millisecond
		o.MaxLease = 300 * time.Millisecond
		o.StealAfter = time.Hour // isolate the expiry path
		o.DrainGrace = 30 * time.Second
		got := runDist(t, raw, o)
		if got != want {
			t.Fatalf("heuristic %s: result diverged from serial through a straggler", h)
		}
		if e := counter(t, m, "dist.leases.expired"); e == 0 {
			t.Fatalf("heuristic %s: stalled lease never expired", h)
		}
		if s := counter(t, m, "dist.results.rejected.superseded"); s == 0 {
			t.Fatalf("heuristic %s: superseded result was not provably rejected (counter 0)", h)
		}
	}
}

// TestDistWorkStealing: with nothing pending and an idle worker, the tail
// of a slow lease is re-split onto the idle worker; the straggler's
// eventual deliveries of stolen shards are fenced out.
func TestDistWorkStealing(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	w2 := startWorker(t, serve.Options{MaxConcurrent: 2,
		Inject: resilience.MustParse("serve.job=stall:1:1500ms")})
	raw := exampleSpec(t, "E")
	want := serialJSON(t, raw)
	m := obs.NewMetrics()
	o := fastOpts(m, w1.URL, w2.URL)
	o.Shards = 8
	o.LeaseTTL = time.Hour // no expiry: stealing is the only rescue
	o.MaxLease = time.Hour
	o.StealAfter = 120 * time.Millisecond
	o.DrainGrace = 30 * time.Second
	start := time.Now()
	got := runDist(t, raw, o)
	elapsed := time.Since(start)
	if got != want {
		t.Fatalf("result diverged from serial through work stealing")
	}
	if s := counter(t, m, "dist.leases.stolen"); s == 0 {
		t.Fatalf("no work was stolen from the straggler (elapsed %v)", elapsed)
	}
	if s := counter(t, m, "dist.shards.stolen"); s == 0 {
		t.Fatalf("no shards moved by stealing")
	}
}

// TestDistCoordinatorKillResume: a coordinator killed mid-search leaves a
// signed checkpoint behind; a fresh coordinator resumes it, skips the
// finished shards, and the final result is byte-identical to serial.
func TestDistCoordinatorKillResume(t *testing.T) {
	// Every job stalls briefly so the coordinator is reliably mid-search
	// when cancelled, with some leases already accepted and checkpointed.
	w1 := startWorker(t, serve.Options{MaxConcurrent: 1,
		Inject: resilience.MustParse("serve.job=stall:1:120ms")})
	raw := exampleSpec(t, "E")
	want := serialJSON(t, raw)
	path := t.TempDir() + "/dist.ckpt"

	m1 := obs.NewMetrics()
	o := fastOpts(m1, w1.URL)
	o.Shards = 6
	o.MaxLeaseShards = 2 // several sequential leases -> mid-run checkpoints
	o.CheckpointPath = path
	c1, err := New(raw, o)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan error, 1)
	go func() {
		_, _, err := c1.Run(ctx1)
		done1 <- err
	}()
	// Kill the coordinator as soon as the first checkpoint lands.
	deadline := time.Now().Add(30 * time.Second)
	for counter(t, m1, "resilience.checkpoint_saves") == 0 {
		if time.Now().After(deadline) {
			cancel1()
			t.Fatalf("no checkpoint saved before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel1()
	if err := <-done1; err == nil {
		// The search may legitimately have completed between the save and
		// the cancel; that still exercises save/consume, but the resume
		// path below needs an interrupted run.
		t.Skipf("search completed before the kill; nothing to resume")
	}

	m2 := obs.NewMetrics()
	o2 := fastOpts(m2, w1.URL)
	o2.Shards = 6
	o2.MaxLeaseShards = 2
	o2.CheckpointPath = path
	o2.Resume = true
	got := runDist(t, raw, o2)
	if got != want {
		t.Fatalf("resumed result diverged from serial")
	}
	if r := counter(t, m2, "resilience.checkpoint_resumed_shards"); r == 0 {
		t.Fatalf("nothing resumed from the checkpoint")
	}
	if acc1, acc2 := counter(t, m1, "dist.results.accepted"), counter(t, m2, "dist.results.accepted"); acc1+acc2 < 6 {
		t.Fatalf("resume re-ran shards: %d before kill + %d after < 6", acc1, acc2)
	}
}

// TestDistResumeRefusesForeignCheckpoint: a checkpoint from a different
// search (signature mismatch) is ignored, not merged.
func TestDistResumeRefusesForeignCheckpoint(t *testing.T) {
	w1 := startWorker(t, serve.Options{})
	path := t.TempDir() + "/dist.ckpt"
	foreign, _ := core.OpenShardLog(core.Config{CheckpointPath: path}, "0000", 6, nil)
	if err := foreign.Append(0, &core.SearchResult{Trials: 999}); err != nil {
		t.Fatal(err)
	}
	foreign.Close()
	raw := exampleSpec(t, "E")
	want := serialJSON(t, raw)
	m := obs.NewMetrics()
	o := fastOpts(m, w1.URL)
	o.Shards = 6
	o.CheckpointPath = path
	o.Resume = true
	got := runDist(t, raw, o)
	if got != want {
		t.Fatalf("foreign checkpoint leaked into the merge")
	}
	if mm := counter(t, m, "resilience.checkpoint_mismatch"); mm != 1 {
		t.Fatalf("want 1 checkpoint mismatch, got %d", mm)
	}
	if r := counter(t, m, "resilience.checkpoint_resumed_shards"); r != 0 {
		t.Fatalf("foreign shards resumed: %d", r)
	}
}

// TestDistEpochFenceUnit drives handleOutcome directly: after a lease's
// shards are requeued (authority revoked), its late delivery is rejected
// per shard with the superseded counter and the done-set is untouched.
func TestDistEpochFenceUnit(t *testing.T) {
	m := obs.NewMetrics()
	c := &Coordinator{
		o:      Options{Metrics: m, Log: testLogger()},
		done:   make(map[int]*core.SearchResult),
		epoch:  make([]int64, 4),
		leases: make(map[int64]*lease),
	}
	c.plan = core.ShardPlan{Shards: 4, Signature: "sig"}
	w := &worker{url: "test", busy: true}
	l := &lease{id: 1, worker: w, shards: []int{0, 1}, epochs: map[int]int64{0: 1, 1: 1}}
	c.epoch[0], c.epoch[1] = 1, 1
	c.leases[l.id] = l

	// Expiry revokes authority: both shards requeue under fresh epochs.
	c.requeue(l, "expired")
	if len(c.pending) != 2 || c.epoch[0] != 2 || c.epoch[1] != 2 {
		t.Fatalf("requeue: pending=%v epochs=%v", c.pending, c.epoch[:2])
	}
	// Requeue is idempotent: a second revocation (failure after expiry)
	// must not double-queue or re-bump.
	c.requeue(l, "failed")
	if len(c.pending) != 2 || c.epoch[0] != 2 {
		t.Fatalf("requeue not idempotent: pending=%v epoch=%d", c.pending, c.epoch[0])
	}

	// The straggler's late result arrives first — before any replacement
	// ran — and must still be fenced out.
	c.handleOutcome(outcome{l: l, resp: &serve.ShardResponse{
		Shards: 4, Signature: "sig",
		Results: map[int]*core.SearchResult{0: {Trials: 1}, 1: {Trials: 1}},
	}})
	if len(c.done) != 0 {
		t.Fatalf("superseded results reached the done-set: %v", c.done)
	}
	if s := counter(t, m, "dist.results.rejected.superseded"); s != 2 {
		t.Fatalf("want 2 superseded rejections, got %d", s)
	}
	if w.busy {
		t.Fatalf("worker not released after outcome")
	}

	// The replacement lease (current epochs) is accepted normally.
	w.busy = true
	l2 := &lease{id: 2, worker: w, shards: []int{0, 1}, epochs: map[int]int64{0: 2, 1: 2}}
	c.leases[l2.id] = l2
	c.pending = nil
	c.handleOutcome(outcome{l: l2, resp: &serve.ShardResponse{
		Shards: 4, Signature: "sig",
		Results: map[int]*core.SearchResult{0: {Trials: 7}, 1: {Trials: 8}},
	}})
	if len(c.done) != 2 || c.done[0].Trials != 7 {
		t.Fatalf("authoritative results not accepted: %v", c.done)
	}
	if a := counter(t, m, "dist.results.accepted"); a != 2 {
		t.Fatalf("want 2 accepted, got %d", a)
	}
}
