package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/spec"
)

// TestChaosSmoke drives the real server — real job table, real pipeline —
// under sustained fault injection, the way the CI chaos step runs it. It is
// opt-in via CHOP_CHAOS_SMOKE=1 because it deliberately burns wall clock;
// CHOP_CHAOS_SMOKE_SECS overrides the default 30-second soak.
//
// Roughly 10% of job executions panic and a few percent stall against the
// per-run deadline, while clients submit, poll and cancel concurrently.
// The server must stay consistent throughout: every accepted run reaches a
// terminal state, readiness and draining behave, and the final drain
// returns with nothing stuck.
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
		Inject: resilience.MustParse(
			"seed=3,serve.job=panic:0.1,bad.predict=error:0.02,core.trial=stall:0.001:100ms"),
	})

	// When CHOP_CHAOS_STATS_OUT names a file, the soak appends the
	// /api/v1/stats payload to it as one JSON line a second and once more
	// at cleanup: runs by state, occupancy, cache, resilience counters and
	// the active folds. CI uploads it as an artifact, so a failed (or
	// suspicious) chaos run comes with its telemetry trajectory attached.
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
	body := fmt.Sprintf(`{"kind":"eval","spec":%s,"timeoutSec":2}`, raw)

	deadline := time.Now().Add(soak)
	rng := rand.New(rand.NewSource(5))
	var ids []string
	submitted, rejected := 0, 0
	for time.Now().Before(deadline) {
		st, resp := postRun(t, ts, body)
		switch resp.StatusCode {
		case http.StatusAccepted:
			submitted++
			ids = append(ids, st.ID)
		case http.StatusServiceUnavailable:
			rejected++ // queue full under load: expected, must not wedge
		default:
			t.Fatalf("submit: unexpected status %d", resp.StatusCode)
		}
		// Occasionally cancel a random earlier run mid-flight.
		if len(ids) > 0 && rng.Intn(5) == 0 {
			id := ids[rng.Intn(len(ids))]
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/runs/"+id, nil)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		time.Sleep(time.Duration(5+rng.Intn(30)) * time.Millisecond)
	}
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
	_, resp := postRun(t, ts, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status = %d", resp.StatusCode)
	}
	var promDump strings.Builder
	m.WriteProm(&promDump)
	t.Logf("chaos smoke: %d submitted, %d rejected, states %v, panics=%d timeouts=%d",
		submitted, rejected, counts,
		m.Counter("resilience.panic_recovered"), m.Counter("serve.runs.timeout"))
	if counts[StateDone] == 0 {
		t.Error("no run ever succeeded under 10% fault rate; suspicious")
	}
	if m.Counter("resilience.panic_recovered") == 0 {
		t.Error("injected panics never fired; injection not wired")
	}
}
