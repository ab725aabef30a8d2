package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/spec"
)

// chaosJobs is a job table exercising every failure shape the registry must
// survive: instant success, panic, organic error, and stall-until-cancel.
func chaosJobs() map[string]Job {
	return map[string]Job{
		"instant": rawJob(func(ctx context.Context, spec json.RawMessage, jc JobContext) (any, error) {
			return "ok", nil
		}),
		"explode": rawJob(func(ctx context.Context, spec json.RawMessage, jc JobContext) (any, error) {
			panic("job blew up")
		}),
		"fail": rawJob(func(ctx context.Context, spec json.RawMessage, jc JobContext) (any, error) {
			return nil, fmt.Errorf("organic failure")
		}),
		"stall": rawJob(func(ctx context.Context, spec json.RawMessage, jc JobContext) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	}
}

// leakCheck snapshots the goroutine count and, at cleanup, waits for it to
// settle back — a stuck worker or an abandoned job goroutine fails here.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		buf := make([]byte, 1<<16)
		t.Errorf("goroutines leaked: %d before, %d after\n%s",
			before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
	})
}

// TestJobTimeoutFreesSlotAndFails is the satellite deadline test: a stalled
// job must be killed by its per-job timeout, the run marked failed with a
// timeout reason, and the freed worker slot must pick up the next run.
func TestJobTimeoutFreesSlotAndFails(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{MaxConcurrent: 1, Jobs: chaosJobs(), Metrics: m})
	defer r.Shutdown(context.Background())

	stuck, err := r.SubmitWith("stall", nil, SubmitOptions{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, stuck, StateFailed)
	if st := stuck.Status(false); !strings.Contains(st.Error, "deadline exceeded") {
		t.Errorf("timeout reason missing: %q", st.Error)
	}
	if n := m.Counter("serve.runs.timeout"); n != 1 {
		t.Errorf("serve.runs.timeout = %d", n)
	}
	// The single worker slot must be free again.
	next, err := r.Submit("instant", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, next, StateDone)
}

// TestJobTimeoutDistinctFromCancel: an operator cancel of a deadline-bearing
// run is still reported as canceled, not failed — ErrJobTimeout only marks
// runs whose deadline actually fired.
func TestJobTimeoutDistinctFromCancel(t *testing.T) {
	leakCheck(t)
	r := NewRegistry(Options{MaxConcurrent: 1, Jobs: chaosJobs()})
	defer r.Shutdown(context.Background())
	run, err := r.SubmitWith("stall", nil, SubmitOptions{Timeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateRunning)
	if ok, err := r.Cancel(run.ID()); err != nil || !ok {
		t.Fatalf("cancel: %v %v", ok, err)
	}
	waitState(t, run, StateCanceled)
}

// TestDefaultJobTimeoutAndOptOut: the registry-wide default deadline applies
// when a submission carries none, and a negative per-run timeout opts out.
func TestDefaultJobTimeoutAndOptOut(t *testing.T) {
	leakCheck(t)
	r := NewRegistry(Options{
		MaxConcurrent: 2, Jobs: chaosJobs(),
		DefaultJobTimeout: 30 * time.Millisecond,
	})
	defer r.Shutdown(context.Background())

	bounded, err := r.Submit("stall", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bounded, StateFailed)

	unbounded, err := r.SubmitWith("instant", nil, SubmitOptions{Timeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, unbounded, StateDone)
}

// TestJobPanicIsolation: a panicking job fails only its own run — the error
// carries the recovered panic, the metric counts it, and the worker keeps
// serving.
func TestJobPanicIsolation(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{MaxConcurrent: 1, Jobs: chaosJobs(), Metrics: m})
	defer r.Shutdown(context.Background())

	boom, err := r.Submit("explode", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, boom, StateFailed)
	if st := boom.Status(false); !strings.Contains(st.Error, "panic recovered at serve.job") {
		t.Errorf("panic not surfaced structurally: %q", st.Error)
	}
	if n := m.Counter("resilience.panic_recovered"); n != 1 {
		t.Errorf("resilience.panic_recovered = %d", n)
	}
	next, err := r.Submit("instant", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, next, StateDone)
}

// TestEvalTrialPanicCountedOnce: a trial panic inside an eval job is
// recovered (and counted) by core's shard guard; the job returns it as a
// plain error, so the registry's job guard must not count it again.
func TestEvalTrialPanicCountedOnce(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{
		MaxConcurrent: 1, Jobs: DefaultJobs(), Metrics: m,
		Inject: resilience.MustParse("core.trial=panic:@1"),
	})
	defer r.Shutdown(context.Background())
	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.Submit("eval", raw)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateFailed)
	if st := run.Status(false); !strings.Contains(st.Error, "panic recovered at core.search") {
		t.Errorf("trial panic not surfaced structurally: %q", st.Error)
	}
	if n := m.Counter("resilience.panic_recovered"); n != 1 {
		t.Errorf("resilience.panic_recovered = %d, want 1", n)
	}
}

// TestInjectedJobFaults: the registry-level injector makes runs fail, panic
// or stall on demand without touching job code, and injected stalls still
// honor the per-job deadline.
func TestInjectedJobFaults(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{
		MaxConcurrent: 1, Jobs: chaosJobs(), Metrics: m,
		Inject: resilience.MustParse("serve.job=error:@1"),
	})
	defer r.Shutdown(context.Background())
	hit, err := r.Submit("instant", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, hit, StateFailed)
	if st := hit.Status(false); !strings.Contains(st.Error, "injected fault") {
		t.Errorf("injected fault not surfaced: %q", st.Error)
	}
	clean, err := r.Submit("instant", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, clean, StateDone)
}

func TestInjectedStallKilledByDeadline(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{
		MaxConcurrent: 1, Jobs: chaosJobs(), Metrics: m,
		Inject: resilience.MustParse("serve.job=stall:@1:1m"),
	})
	defer r.Shutdown(context.Background())
	run, err := r.SubmitWith("instant", nil, SubmitOptions{Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateFailed)
	if n := m.Counter("serve.runs.timeout"); n != 1 {
		t.Errorf("serve.runs.timeout = %d", n)
	}
}

// TestCheckpointNameResolution: a submission's checkpoint is a name inside
// the server's checkpoint directory, never a raw filesystem path — absolute
// and traversing names are rejected, as is any name when the registry has
// no CheckpointDir, so clients cannot aim the server's atomic
// overwrite-and-delete cycle at arbitrary files.
func TestCheckpointNameResolution(t *testing.T) {
	leakCheck(t)
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		paths []string
	)
	jobs := map[string]Job{
		"record": rawJob(func(_ context.Context, _ json.RawMessage, jc JobContext) (any, error) {
			mu.Lock()
			paths = append(paths, jc.Checkpoint)
			mu.Unlock()
			return "ok", nil
		}),
	}
	r := NewRegistry(Options{MaxConcurrent: 1, Jobs: jobs, CheckpointDir: dir})
	defer r.Shutdown(context.Background())

	for _, name := range []string{"/etc/passwd", "../escape.ckpt", "a/../../escape.ckpt", ".."} {
		if _, err := r.SubmitWith("record", nil, SubmitOptions{Checkpoint: name}); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("checkpoint %q: err = %v, want ErrBadCheckpoint", name, err)
		}
	}

	run, err := r.SubmitWith("record", nil, SubmitOptions{Checkpoint: "runs/search.ckpt"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateDone)
	mu.Lock()
	got := append([]string(nil), paths...)
	mu.Unlock()
	want := filepath.Join(dir, "runs", "search.ckpt")
	if len(got) != 1 || got[0] != want {
		t.Errorf("resolved checkpoint = %v, want [%s]", got, want)
	}

	// No checkpoint directory configured: naming a checkpoint is an error,
	// not a silent write wherever the client pointed.
	bare := NewRegistry(Options{MaxConcurrent: 1, Jobs: jobs})
	defer bare.Shutdown(context.Background())
	if _, err := bare.SubmitWith("record", nil, SubmitOptions{Checkpoint: "search.ckpt"}); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("no CheckpointDir: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestChaosRegistryConsistency is the fault-injection chaos suite: a burst
// of concurrent submissions across every failure shape — panics, organic
// errors, injected faults, stalls under short deadlines — races a mid-burst
// drain. Afterward the registry must be fully consistent: every accepted
// run terminal, no stuck queue entries, no leaked goroutines, no run
// counted as running, and the state counts adding up.
func TestChaosRegistryConsistency(t *testing.T) {
	leakCheck(t)
	m := obs.NewMetrics()
	r := NewRegistry(Options{
		MaxConcurrent: 4, QueueDepth: 8, Jobs: chaosJobs(), Metrics: m,
		DefaultJobTimeout: 50 * time.Millisecond,
		Inject:            resilience.MustParse("seed=7,serve.job=panic:0.15"),
	})

	kinds := []string{"instant", "explode", "fail", "stall", "instant", "instant"}
	rng := rand.New(rand.NewSource(11))
	var (
		mu       sync.Mutex
		accepted []*Run
	)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			for i := 0; i < 25; i++ {
				kind := kinds[prng.Intn(len(kinds))]
				run, err := r.SubmitWith(kind, nil, SubmitOptions{
					Timeout: time.Duration(10+prng.Intn(40)) * time.Millisecond,
				})
				if err != nil {
					continue // queue-full / draining rejections are expected
				}
				mu.Lock()
				accepted = append(accepted, run)
				mu.Unlock()
				time.Sleep(time.Duration(prng.Intn(3)) * time.Millisecond)
			}
		}()
	}
	// Drain mid-burst: submissions racing the drain must either be
	// rejected or still reach a terminal state.
	time.Sleep(25 * time.Millisecond)
	if err := r.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()

	if qn := r.QueueLen(); qn != 0 {
		t.Errorf("queue not empty after drain: %d", qn)
	}
	counts := map[State]int{}
	for _, run := range accepted {
		st := run.Status(false)
		if !st.State.Terminal() {
			t.Errorf("run %s stuck in %s", st.ID, st.State)
		}
		counts[st.State]++
	}
	if len(accepted) == 0 {
		t.Fatal("chaos burst accepted no runs; test is vacuous")
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != len(accepted) {
		t.Errorf("state counts %v do not cover %d accepted runs", counts, len(accepted))
	}
	if n := r.CountByState()[StateRunning]; n != 0 {
		t.Errorf("%d runs counted as running after drain", n)
	}
	checkCountByState(t, r)
	t.Logf("chaos: %d accepted %v, panics=%d timeouts=%d",
		len(accepted), counts, m.Counter("resilience.panic_recovered"),
		m.Counter("serve.runs.timeout"))
}

// TestDrainRaceWithSubmissions hammers Submit against Shutdown from many
// goroutines (run with -race): every accepted run must still reach a
// terminal state and late submissions must fail with ErrDraining, never
// hang or corrupt the registry.
func TestDrainRaceWithSubmissions(t *testing.T) {
	leakCheck(t)
	r := NewRegistry(Options{MaxConcurrent: 2, QueueDepth: 4, Jobs: chaosJobs()})
	var (
		mu       sync.Mutex
		accepted []*Run
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				run, err := r.Submit("instant", nil)
				if err != nil {
					continue
				}
				mu.Lock()
				accepted = append(accepted, run)
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(time.Millisecond)
		r.Shutdown(context.Background())
	}()
	wg.Wait()
	for _, run := range accepted {
		if st := run.Status(false); !st.State.Terminal() {
			t.Errorf("run %s stuck in %s after drain race", st.ID, st.State)
		}
	}
	if !r.Draining() {
		t.Error("registry not draining after Shutdown")
	}
}
