package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"chop/internal/obs"
	"chop/internal/serve"
)

// lease is one shard-group assignment to one worker. The Run loop owns
// every field except deadlineNS, which the lease goroutine advances on
// each successful status poll (renewal) and the loop's expiry scan reads.
type lease struct {
	id      int64
	worker  *worker
	shards  []int
	epochs  map[int]int64 // shard -> fencing epoch at grant
	granted time.Time
	// hardStop caps the lease's lifetime regardless of renewals: a worker
	// that stays reachable but never finishes (stalled job) must still
	// lose its lease.
	hardStop time.Time
	runID    string

	deadlineNS atomic.Int64 // UnixNano; advanced by renewals
	expired    bool         // Run loop: authority revoked, shards requeued
	finished   bool         // Run loop: outcome processed
}

func (l *lease) renew(t time.Time) { l.deadlineNS.Store(t.UnixNano()) }

func (l *lease) deadline() time.Time { return time.Unix(0, l.deadlineNS.Load()) }

// outcome is a lease goroutine's terminal delivery to the Run loop.
type outcome struct {
	l    *lease
	resp *serve.ShardResponse
	err  error
}

// pollFailLimit is how many consecutive failed status polls a lease
// goroutine tolerates (worker restarting, transient network) before it
// declares the lease failed. Renewals stop on the first failure, so the
// lease can expire and reassign well before the goroutine gives up.
const pollFailLimit = 5

// runLease drives one lease to a terminal outcome: submit the shard run
// (riding out admission backpressure with Retry-After-aware retries),
// then poll the worker, renewing the lease on every successful poll, and
// deliver the decoded response or the failure. The goroutine keeps
// polling even after the coordinator expires the lease — a late result
// from a straggler must arrive so the epoch fence can reject it, rather
// than being silently dropped along with the evidence.
func (c *Coordinator) runLease(ctx context.Context, l *lease) {
	defer c.wg.Done()
	sp := obs.SpanUnder(c.o.Trace, c.root, "Lease",
		obs.F("lease", l.id), obs.F("worker", l.worker.url),
		obs.F("shards", len(l.shards)))
	if sp != nil {
		// Stamp coordinator -> worker requests with this span's W3C trace
		// context, so the worker's HTTP spans and the shard run's search
		// spans stitch under the coordinator's trace.
		ctx = obs.WithTraceContext(ctx, sp.Context())
	}
	resp, err := c.executeLease(ctx, l)
	if err != nil {
		sp.End(obs.F("error", err.Error()))
	} else {
		sp.End(obs.F("run", l.runID), obs.F("trials", resp.Trials))
	}
	select {
	case c.resc <- outcome{l: l, resp: resp, err: err}:
	case <-ctx.Done():
		// The coordinator is draining; it no longer consumes outcomes.
	}
}

func (c *Coordinator) executeLease(ctx context.Context, l *lease) (*serve.ShardResponse, error) {
	body, err := json.Marshal(serve.ShardRequest{
		Spec:      c.raw,
		Shards:    c.plan.Shards,
		Indices:   l.shards,
		Signature: c.plan.Signature,
	})
	if err != nil {
		return nil, err
	}
	// The server-side timeout is a backstop for runs the coordinator has
	// abandoned; the lease's own hard cap fires much earlier.
	st, err := l.worker.client.SubmitRetry(ctx, serve.SubmitSpec{
		Kind:       "shard",
		Spec:       body,
		TimeoutSec: (4 * c.o.MaxLease).Seconds(),
	}, c.o.SubmitBudget)
	if err != nil {
		return nil, fmt.Errorf("submit to %s: %w", l.worker.url, err)
	}
	l.runID = st.ID
	fails := 0
	abandonAt := l.granted.Add(4 * c.o.MaxLease)
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.o.Poll):
		}
		if time.Now().After(abandonAt) {
			// Nothing has terminated long past the hard cap: stop burning
			// a poller on it and release the run server-side.
			cctx, cancel := context.WithTimeout(context.Background(), time.Second)
			l.worker.client.Cancel(cctx, l.runID)
			cancel()
			return nil, fmt.Errorf("run %s on %s abandoned after %s",
				l.runID, l.worker.url, time.Since(l.granted).Round(time.Millisecond))
		}
		st, err := l.worker.client.Get(ctx, l.runID)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fails++
			if fails >= pollFailLimit {
				return nil, fmt.Errorf("poll %s on %s: %w", l.runID, l.worker.url, err)
			}
			continue
		}
		fails = 0
		c.renewLease(l)
		if !st.State.Terminal() {
			continue
		}
		if st.State != serve.StateDone {
			return nil, fmt.Errorf("run %s on %s finished %s: %s",
				l.runID, l.worker.url, st.State, st.Error)
		}
		return c.decodeResponse(st)
	}
}

// renewLease extends the lease deadline by one TTL, clamped to the hard
// cap. Renewals that cannot extend (already at the cap) do not count.
func (c *Coordinator) renewLease(l *lease) {
	next := time.Now().Add(c.o.LeaseTTL)
	if next.After(l.hardStop) {
		next = l.hardStop
	}
	if next.After(l.deadline()) {
		l.renew(next)
		c.o.Metrics.Inc("dist.leases.renewed")
	}
}

// decodeResponse reconstructs the typed shard response from the run
// result's generic JSON form and verifies it belongs to this plan.
func (c *Coordinator) decodeResponse(st serve.RunStatus) (*serve.ShardResponse, error) {
	blob, err := json.Marshal(st.Result)
	if err != nil {
		return nil, fmt.Errorf("re-encode result of run %s: %w", st.ID, err)
	}
	var resp serve.ShardResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		return nil, fmt.Errorf("decode result of run %s: %w", st.ID, err)
	}
	if resp.Signature != c.plan.Signature {
		return nil, fmt.Errorf("run %s executed a different plan: signature %.12s.. != %.12s..",
			st.ID, resp.Signature, c.plan.Signature)
	}
	if resp.Shards != c.plan.Shards {
		return nil, fmt.Errorf("run %s executed different geometry: %d shards != %d",
			st.ID, resp.Shards, c.plan.Shards)
	}
	return &resp, nil
}
