package serve

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"sync/atomic"
	"testing"
	"time"

	"chop/internal/obs"
)

// rawJob makes a synthetic run kind whose body reads the raw spec it was
// submitted with and decodes nothing.
func rawJob(body func(ctx context.Context, spec json.RawMessage, jc JobContext) (any, error)) Job {
	return func(spec json.RawMessage) (JobFunc, error) {
		return func(ctx context.Context, jc JobContext) (any, error) { return body(ctx, spec, jc) }, nil
	}
}

// blockingJobs returns a job table with one kind, "block", that signals
// start on started and runs until its context is cancelled.
func blockingJobs(started chan string) map[string]Job {
	return map[string]Job{
		"block": rawJob(func(ctx context.Context, spec json.RawMessage, jc JobContext) (any, error) {
			jc.Tracer.Span("blocked").End()
			if started != nil {
				started <- string(spec)
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	}
}

// waitState polls until the run reaches a terminal state or the state
// wanted, failing the test after a generous deadline.
func waitState(t *testing.T, run *Run, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := run.Status(false)
		if st.State == want {
			return
		}
		if st.State.Terminal() {
			t.Fatalf("run %s reached terminal state %s while waiting for %s", run.ID(), st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s never reached %s (now %s)", run.ID(), want, run.Status(false).State)
}

// checkCountByState checks CountByState against a tally of List, zero
// entries aside.
func checkCountByState(t *testing.T, r *Registry) {
	t.Helper()
	want := map[State]int{}
	for _, st := range r.List() {
		want[st.State]++
	}
	got := r.CountByState()
	maps.DeleteFunc(got, func(_ State, n int) bool { return n == 0 })
	if !maps.Equal(got, want) {
		t.Errorf("CountByState = %v, List tallies %v", got, want)
	}
}

// TestCountByStateSkipsFinishedRuns: the state count reads the queue, the
// worker slots and the tally of finished runs, so a scrape never waits on
// the lock of a run that finished.
func TestCountByStateSkipsFinishedRuns(t *testing.T) {
	started := make(chan string, 1)
	jobs := blockingJobs(started)
	jobs["instant"] = chaosJobs()["instant"]
	r := NewRegistry(Options{MaxConcurrent: 1, Jobs: jobs})
	defer r.Shutdown(context.Background())
	finished, err := r.Submit("instant", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit("block", nil); err != nil {
		t.Fatal(err)
	}
	<-started // the one worker is done with the first run
	finished.mu.Lock()
	defer finished.mu.Unlock()
	counts := make(chan map[State]int, 1)
	go func() { counts <- r.CountByState() }()
	select {
	case got := <-counts:
		if got[StateDone] != 1 || got[StateRunning] != 1 {
			t.Errorf("CountByState = %v, want 1 done and 1 running", got)
		}
	case <-time.After(time.Second):
		t.Fatal("CountByState waits on the lock of a finished run")
	}
}

func TestRegistryUnknownKind(t *testing.T) {
	r := NewRegistry(Options{MaxConcurrent: 1})
	defer r.Shutdown(context.Background())
	if _, err := r.Submit("bogus", nil); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestRegistryQueueFullRejects(t *testing.T) {
	started := make(chan string, 1)
	r := NewRegistry(Options{
		MaxConcurrent: 1, QueueDepth: 1, Jobs: blockingJobs(started),
	})
	defer r.Shutdown(context.Background())

	first, err := r.Submit("block", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker is now occupied
	if _, err := r.Submit("block", nil); err != nil {
		t.Fatalf("second submission should queue: %v", err)
	}
	if _, err := r.Submit("block", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	if got := r.Metrics().Counter("serve.runs.rejected"); got != 1 {
		t.Errorf("rejected counter = %d", got)
	}
	// Cancel the running one; the queued one starts, then shut down.
	if ok, err := r.Cancel(first.ID()); err != nil || !ok {
		t.Fatalf("cancel running: %v %v", ok, err)
	}
	waitState(t, first, StateCanceled)
	<-started // queued run promoted
}

func TestRegistryConcurrencyBound(t *testing.T) {
	const limit = 2
	var inFlight, maxSeen atomic.Int64
	jobs := map[string]Job{
		"work": rawJob(func(ctx context.Context, _ json.RawMessage, _ JobContext) (any, error) {
			n := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			inFlight.Add(-1)
			return "done", nil
		}),
	}
	r := NewRegistry(Options{MaxConcurrent: limit, QueueDepth: 32, Jobs: jobs})
	defer r.Shutdown(context.Background())
	var runs []*Run
	for i := 0; i < 8; i++ {
		run, err := r.Submit("work", nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
	}
	for _, run := range runs {
		waitState(t, run, StateDone)
	}
	if got := maxSeen.Load(); got > limit {
		t.Fatalf("observed %d concurrent runs, pool bound is %d", got, limit)
	}
	if got := r.Metrics().Counter("serve.runs.done"); got != 8 {
		t.Errorf("done counter = %d", got)
	}
	// Results survive in the registry.
	if st := runs[3].Status(true); st.Result != "done" {
		t.Errorf("result = %v", st.Result)
	}
}

func TestRegistryCancelQueued(t *testing.T) {
	started := make(chan string, 1)
	r := NewRegistry(Options{
		MaxConcurrent: 1, QueueDepth: 4, Jobs: blockingJobs(started),
	})
	defer r.Shutdown(context.Background())
	head, _ := r.Submit("block", nil)
	<-started
	queued, err := r.Submit("block", nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := r.Cancel(queued.ID()); err != nil || !ok {
		t.Fatalf("cancel queued: %v %v", ok, err)
	}
	r.Cancel(head.ID())
	waitState(t, queued, StateCanceled)
	waitState(t, head, StateCanceled)
	// Cancelling a terminal run reports false, no error.
	if ok, err := r.Cancel(queued.ID()); err != nil || ok {
		t.Fatalf("cancel terminal = %v %v, want false nil", ok, err)
	}
	if _, err := r.Cancel("r-999999"); err == nil {
		t.Fatal("cancelling unknown id must error")
	}
}

// TestRegistryCancelRacingDispatch cancels each run right after submit,
// while an idle worker is taking it off the queue. Every run must finish
// exactly once, and the tenant's running and queued slots must return to
// zero: a run the worker already holds is finalized by that worker, not
// also by Cancel.
func TestRegistryCancelRacingDispatch(t *testing.T) {
	r := NewRegistry(Options{
		MaxConcurrent: 4, Jobs: chaosJobs(),
		Tenants: []TenantConfig{{Name: "a", Key: "ka"}},
	})
	defer r.Shutdown(context.Background())
	const runs = 2000
	for i := 0; i < runs; i++ {
		run, err := r.SubmitWith("instant", nil, SubmitOptions{APIKey: "ka"})
		if err != nil {
			t.Fatal(err)
		}
		r.Cancel(run.ID())
		deadline := time.Now().Add(10 * time.Second)
		for !run.Status(false).State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("run %s never finished", run.ID())
			}
			time.Sleep(10 * time.Microsecond)
		}
	}
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if n := m.Counter("serve.runs.canceled") + m.Counter("serve.runs.done"); n != runs {
		t.Errorf("%d runs finished %d times", runs, n)
	}
	for _, occ := range r.TenantOccupancies() {
		if occ.Running != 0 || occ.Queued != 0 {
			t.Errorf("tenant %s left running=%d queued=%d", occ.Name, occ.Running, occ.Queued)
		}
	}
}

func TestRegistryShutdownCancelsEverything(t *testing.T) {
	started := make(chan string, 1)
	r := NewRegistry(Options{
		MaxConcurrent: 1, QueueDepth: 4, Jobs: blockingJobs(started),
	})
	running, _ := r.Submit("block", nil)
	<-started
	queued, _ := r.Submit("block", nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	waitState(t, running, StateCanceled)
	waitState(t, queued, StateCanceled)
	if !r.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	if _, err := r.Submit("block", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown submit err = %v, want ErrDraining", err)
	}
	// The run's ring is closed so late subscribers terminate immediately.
	if !running.Ring().Closed() {
		t.Error("running run's ring not closed by shutdown")
	}
}

func TestRegistryRunLifecycleMetadata(t *testing.T) {
	jobs := map[string]Job{
		"ok":   rawJob(func(context.Context, json.RawMessage, JobContext) (any, error) { return 42, nil }),
		"fail": rawJob(func(context.Context, json.RawMessage, JobContext) (any, error) { return nil, errors.New("boom") }),
	}
	r := NewRegistry(Options{MaxConcurrent: 2, Jobs: jobs, Metrics: obs.NewMetrics()})
	defer r.Shutdown(context.Background())
	ok, _ := r.Submit("ok", json.RawMessage(`{"x":1}`))
	bad, _ := r.Submit("fail", nil)
	waitState(t, ok, StateDone)
	waitState(t, bad, StateFailed)

	st := ok.Status(true)
	if st.Started == nil || st.Finished == nil || st.Finished.Before(*st.Started) {
		t.Errorf("timestamps wrong: %+v", st)
	}
	if string(st.Spec) != `{"x":1}` {
		t.Errorf("spec not retained: %s", st.Spec)
	}
	if bst := bad.Status(false); bst.Error != "boom" {
		t.Errorf("error not surfaced: %+v", bst)
	}
	list := r.List()
	if len(list) != 2 || list[0].ID != ok.ID() || list[1].ID != bad.ID() {
		t.Errorf("list order wrong: %+v", list)
	}
	if list[0].Result != nil {
		t.Error("list view must not carry results")
	}
	if r.Metrics().Counter("serve.runs.failed") != 1 {
		t.Error("failed counter missing")
	}
	if r.Metrics().Snapshot().Histograms["serve.run_duration_us"].Count != 2 {
		t.Error("run duration histogram missing")
	}
}

// TestRegistryMergesRunMetrics checks a run's pipeline counters land in
// the server-wide registry: jobs write straight into it, with no per-run
// registry in between.
func TestRegistryMergesRunMetrics(t *testing.T) {
	var jobMetrics *obs.Metrics
	jobs := map[string]Job{
		"count": rawJob(func(_ context.Context, _ json.RawMessage, jc JobContext) (any, error) {
			jobMetrics = jc.Metrics
			jc.Metrics.Add("core.trials", 7)
			jc.Metrics.Observe("core.integrate_us", 3)
			return nil, nil
		}),
	}
	r := NewRegistry(Options{MaxConcurrent: 1, Jobs: jobs})
	defer r.Shutdown(context.Background())
	run, _ := r.Submit("count", nil)
	waitState(t, run, StateDone)
	if jobMetrics != r.Metrics() {
		t.Error("the job was not handed the server-wide registry")
	}
	if got := r.Metrics().Counter("core.trials"); got != 7 {
		t.Errorf("merged core.trials = %d", got)
	}
	if r.Metrics().Snapshot().Histograms["core.integrate_us"].Count != 1 {
		t.Error("merged histogram missing")
	}
}
