package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/spec"
)

// TestChaosSmoke drives the real server — real job table, real pipeline,
// admission control — under sustained fault injection, the way the CI
// chaos step runs it. It is opt-in via CHOP_CHAOS_SMOKE=1 because it
// deliberately burns wall clock; CHOP_CHAOS_SMOKE_SECS overrides the
// default 30-second soak.
//
// Roughly 10% of job executions panic and about 5% stall a trial for
// 100 ms, holding a worker slot, while three clients submit and cancel
// concurrently as two tenants: "hi" (priority 1, at most 2 running) and
// "lo" (at most 8 queued, every run checkpointed), whose bursts fill the
// pool for hi to preempt and overrun lo's queue quota. The server must
// stay consistent throughout: every accepted run reaches a terminal state,
// readiness and draining behave, and the final drain returns with nothing
// stuck, no tenant holding a run, and the state counts agreeing with the
// run list.
func TestChaosSmoke(t *testing.T) {
	if os.Getenv("CHOP_CHAOS_SMOKE") == "" {
		t.Skip("set CHOP_CHAOS_SMOKE=1 to run the chaos smoke")
	}
	soak := 30 * time.Second
	if s := os.Getenv("CHOP_CHAOS_SMOKE_SECS"); s != "" {
		var secs int
		if _, err := fmt.Sscanf(s, "%d", &secs); err == nil && secs > 0 {
			soak = time.Duration(secs) * time.Second
		}
	}
	leakCheck(t)
	m := obs.NewMetrics()
	s, ts := newTestServer(t, Options{
		Metrics:           m,
		MaxConcurrent:     4,
		QueueDepth:        16,
		DefaultJobTimeout: 2 * time.Second,
		CheckpointDir:     t.TempDir(),
		Tenants: []TenantConfig{
			{Name: "hi", Key: "khi", Priority: 1, MaxRunning: 2},
			{Name: "lo", Key: "klo", MaxQueued: 8},
		},
		Inject: resilience.MustParse(
			"seed=3,serve.job=panic:0.1,bad.predict=error:0.02,core.trial=stall:0.01:100ms"),
	})

	// When CHOP_CHAOS_STATS_OUT names a file, the soak appends the
	// /api/v1/stats payload to it as one JSON line a second and once more
	// at cleanup: runs by state, occupancy, cache, resilience counters, the
	// active folds and the tenants. CI uploads it as an artifact, so a
	// failed (or suspicious) chaos run comes with its telemetry trajectory
	// attached.
	if path := os.Getenv("CHOP_CHAOS_STATS_OUT"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(f)
		var werr error // first write error; later lines are skipped
		sample := func() {
			if werr == nil {
				werr = enc.Encode(s.serverStats())
			}
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					sample()
				case <-stop:
					return
				}
			}
		}()
		t.Cleanup(func() {
			close(stop)
			<-done
			sample()
			if werr != nil {
				t.Errorf("chaos stats out: %v", werr)
			}
			if err := f.Close(); err != nil {
				t.Errorf("chaos stats close: %v", err)
			}
		})
	}

	raw, err := json.Marshal(spec.Example())
	if err != nil {
		t.Fatal(err)
	}

	// Client 0 submits as hi, one run at a time; clients 1 and 2 submit as
	// lo in bursts. 429 (over quota) and 503 (queue full) are backpressure.
	deadline := time.Now().Add(soak)
	var (
		mu                  sync.Mutex
		submitted, rejected int
	)
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &Client{Base: ts.URL, APIKey: "klo"}
			burst, pause := 12, 20
			if c == 0 {
				client.APIKey = "khi"
				burst, pause = 1, 5
			}
			rng := rand.New(rand.NewSource(int64(5 + c)))
			var ids []string
			for n := 0; time.Now().Before(deadline); {
				for i := 0; i < burst; i++ {
					req := SubmitSpec{Kind: "eval", Spec: raw, TimeoutSec: 2}
					if c > 0 {
						n++
						req.Checkpoint = fmt.Sprintf("lo-%d-%d.ckpt", c, n)
					}
					st, err := client.Submit(context.Background(), req)
					var ae *APIError
					switch {
					case err == nil:
						ids = append(ids, st.ID)
					case errors.As(err, &ae) && (ae.Status == http.StatusTooManyRequests ||
						ae.Status == http.StatusServiceUnavailable):
						mu.Lock()
						rejected++
						mu.Unlock()
					default:
						t.Errorf("client %d submit: %v", c, err)
						return
					}
				}
				// Occasionally cancel a random earlier run mid-flight.
				if len(ids) > 0 && rng.Intn(5) == 0 {
					client.Cancel(context.Background(), ids[rng.Intn(len(ids))])
				}
				time.Sleep(time.Duration(pause+rng.Intn(30)) * time.Millisecond)
			}
			mu.Lock()
			submitted += len(ids)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if submitted == 0 {
		t.Fatal("smoke submitted nothing; vacuous")
	}

	// Everything accepted must settle; give in-flight work its deadline.
	settle := time.Now().Add(10 * time.Second)
	for {
		stuck := 0
		for _, rs := range s.Registry().List() {
			if !rs.State.Terminal() {
				stuck++
			}
		}
		if stuck == 0 {
			break
		}
		if time.Now().After(settle) {
			t.Fatalf("%d runs never reached a terminal state", stuck)
		}
		time.Sleep(50 * time.Millisecond)
	}
	counts := map[State]int{}
	for _, rs := range s.Registry().List() {
		counts[rs.State]++
		if rs.State == StateFailed && rs.Error == "" {
			t.Errorf("failed run %s carries no error", rs.ID)
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain after chaos: %v", err)
	}
	// Post-drain the server must refuse work, cleanly.
	_, resp := postRun(t, ts, `{"kind":"eval"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status = %d", resp.StatusCode)
	}
	for _, occ := range s.Registry().TenantOccupancies() {
		if occ.Running != 0 || occ.Queued != 0 {
			t.Errorf("tenant %s holds runs after drain: running=%d queued=%d",
				occ.Name, occ.Running, occ.Queued)
		}
	}
	checkCountByState(t, s.Registry())
	var promDump strings.Builder
	m.WriteProm(&promDump)
	preempted, overQuota := m.Counter("serve.admission.preempted"), m.Counter("serve.admission.rejected.over_quota")
	t.Logf("chaos smoke: %d submitted, %d rejected (over quota %d), preempted %d, states %v, panics=%d timeouts=%d",
		submitted, rejected, overQuota, preempted, counts,
		m.Counter("resilience.panic_recovered"), m.Counter("serve.runs.timeout"))
	if counts[StateDone] == 0 {
		t.Error("no run ever succeeded under 10% fault rate; suspicious")
	}
	if m.Counter("resilience.panic_recovered") == 0 {
		t.Error("injected panics never fired; injection not wired")
	}
	if preempted == 0 {
		t.Error("hi never preempted a lo run; priority dispatch not exercised")
	}
	if overQuota == 0 {
		t.Error("lo's bursts never hit its queue quota; quotas not exercised")
	}
}
