// Package dist implements fault-tolerant distributed search: a shard
// coordinator that farms contiguous shard ranges of one planned search
// (core.PlanShards) out to a fleet of chop serve workers over the REST API
// and merges the per-shard results in visit order, so the answer is
// byte-identical to a local core.Search at any fleet size and through any
// worker failure.
//
// Every assignment is a lease with a deadline and a fencing epoch:
//
//   - granted: a contiguous group of pending shards is submitted to an
//     idle worker as one "shard" run; each shard's epoch is bumped and
//     recorded on the lease, making the lease the shard's sole authority.
//   - renewed: every successful status poll extends the lease deadline by
//     the TTL, up to a hard cap — liveness keeps a lease alive, a dead or
//     unreachable worker stops renewing and expires.
//   - expired: a lease past its deadline (or the hard cap) loses
//     authority. Its unfinished shards bump epochs and return to the
//     pending queue for reassignment; the old run keeps being polled so a
//     late result arrives — and is rejected by the fence.
//   - reassigned: requeued shards are granted again under fresh epochs,
//     to whichever worker is idle.
//
// A result is merged only if its shard is not already done and the
// delivering lease's epoch equals the shard's current epoch; anything
// else counts as a duplicate or superseded rejection. Work stealing
// re-splits the tail of a slow lease onto idle workers under the same
// fencing rules, so one straggler cannot dominate wall clock. Completed
// shards are checkpointed (signed, atomic, chop-ckpt/1 envelope) so a
// killed coordinator resumes without re-running finished shards.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/serve"
	"chop/internal/spec"
)

// Options configures a Coordinator.
type Options struct {
	// Workers are the base URLs of the chop serve fleet (required).
	Workers []string
	// APIKey authenticates against admission-controlled workers.
	APIKey string
	// HTTP overrides the transport (nil: http.DefaultClient).
	HTTP *http.Client

	// LeaseTTL is the liveness window: a lease whose worker has not
	// answered a status poll for this long expires. Default 10s.
	LeaseTTL time.Duration
	// MaxLease caps a lease's total lifetime regardless of renewals, so a
	// responsive-but-stuck worker (the run never finishes) still expires.
	// Default 6 x LeaseTTL.
	MaxLease time.Duration
	// StealAfter is the age past which an idle worker may steal the tail
	// of a still-running lease. Default LeaseTTL.
	StealAfter time.Duration
	// Shards requests the shard count of the plan (enumeration only; the
	// iterative heuristic's shards are its candidate intervals). Default
	// 4 x len(Workers).
	Shards int
	// MaxLeaseShards caps how many shards one lease covers (0 =
	// unlimited). Smaller leases checkpoint and rebalance at a finer
	// grain at the cost of more submissions.
	MaxLeaseShards int
	// DrainGrace, when positive, keeps the coordinator consuming late
	// lease outcomes for up to this long after the done-set completes, so
	// straggler deliveries are observed (and rejected by the epoch fence,
	// feeding the rejection counters and closing their trace spans)
	// instead of being cancelled unseen. The default 0 returns
	// immediately — stragglers' runs are abandoned.
	DrainGrace time.Duration
	// MaxWorkerFailures quarantines a worker after this many consecutive
	// lease failures. Default 3.
	MaxWorkerFailures int
	// SubmitBudget bounds how long one lease submission rides out 429/503
	// backpressure (Client.SubmitRetry). Default 10s.
	SubmitBudget time.Duration
	// Poll is the worker status-poll cadence. Default 100ms.
	Poll time.Duration

	// CheckpointPath persists accepted shard results; Resume restores a
	// matching snapshot so a restarted coordinator skips finished shards.
	// CheckpointEvery sets the save cadence in accepted shards (default 1).
	CheckpointPath  string
	CheckpointEvery int
	Resume          bool

	Metrics *obs.Metrics
	Trace   *obs.Tracer
	Log     *slog.Logger
	// Inject is the coordinator-side fault injector (sites "dist.grant",
	// "checkpoint.save").
	Inject *resilience.Injector
}

// withDefaults resolves the option defaults.
func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.MaxLease <= 0 {
		o.MaxLease = 6 * o.LeaseTTL
	}
	if o.MaxLease < o.LeaseTTL {
		o.MaxLease = o.LeaseTTL
	}
	if o.StealAfter <= 0 {
		o.StealAfter = o.LeaseTTL
	}
	if o.Shards <= 0 {
		o.Shards = 4 * len(o.Workers)
	}
	if o.MaxWorkerFailures <= 0 {
		o.MaxWorkerFailures = 3
	}
	if o.SubmitBudget <= 0 {
		o.SubmitBudget = 10 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 100 * time.Millisecond
	}
	if o.Log == nil {
		o.Log = slog.Default()
	}
	return o
}

// worker is one fleet member's coordinator-side state.
type worker struct {
	url         string
	client      *serve.Client
	busy        bool
	consecFails int
	quarantined bool
}

// Coordinator drives one distributed search.
type Coordinator struct {
	o    Options
	raw  json.RawMessage // the spec forwarded verbatim to workers
	prob *spec.Problem

	plan    core.ShardPlan
	preds   []bad.Result
	workers []*worker

	// All mutable search state below is owned by the Run loop; lease
	// goroutines communicate exclusively through resc and the lease's
	// atomic deadline.
	pending []int // sorted shard indices awaiting a grant
	epoch   []int64
	done    map[int]*core.SearchResult
	leases  map[int64]*lease
	nextID  int64
	ckptDue int // accepted shards since the last checkpoint save

	resc chan outcome
	wg   sync.WaitGroup
	root *obs.Span
}

// New parses the spec and validates the fleet configuration. The spec is
// the same JSON chop eval takes; its heuristic, knobs and workers field
// travel to the fleet verbatim, so every worker independently derives the
// identical shard plan.
func New(specJSON []byte, o Options) (*Coordinator, error) {
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("dist: at least one worker URL required")
	}
	prob, err := spec.Parse(specJSON)
	if err != nil {
		return nil, err
	}
	o = o.withDefaults()
	c := &Coordinator{
		o:    o,
		raw:  append(json.RawMessage(nil), specJSON...),
		prob: prob,
		done: make(map[int]*core.SearchResult),
		resc: make(chan outcome, 4*len(o.Workers)+16),
	}
	for _, u := range o.Workers {
		c.workers = append(c.workers, &worker{
			url:    u,
			client: &serve.Client{Base: u, APIKey: o.APIKey, HTTP: o.HTTP},
		})
	}
	return c, nil
}

// Plan exposes the shard plan after Run has computed it (zero before).
func (c *Coordinator) Plan() core.ShardPlan { return c.plan }

// Run executes the distributed search to completion and returns the
// merged result plus the locally computed per-partition predictions —
// exactly what core.Run returns for the same spec.
func (c *Coordinator) Run(ctx context.Context) (core.SearchResult, []bad.Result, error) {
	cfg := c.prob.Config
	cfg.Ctx = ctx
	cfg.Metrics = c.o.Metrics
	cfg.Trace = c.o.Trace
	h := c.prob.Heuristic

	c.root = c.o.Trace.Span("DistSearch",
		obs.F("heuristic", h.String()), obs.F("workers", len(c.workers)))
	defer c.root.End()

	preds, err := core.PredictPartitions(c.prob.Partitioning, cfg)
	if err != nil {
		return core.SearchResult{}, nil, err
	}
	c.preds = preds
	plan, err := core.PlanShards(c.prob.Partitioning, cfg, preds, h, c.o.Shards)
	if err != nil {
		return core.SearchResult{}, nil, err
	}
	c.plan = plan
	c.root.Point("plan", obs.F("shards", plan.Shards), obs.F("total", plan.Total),
		obs.F("signature", plan.Signature))
	if plan.Shards == 0 {
		// Empty search space: nothing to farm out; match the serial result.
		res, err := core.MergeShardResults(h, 0, nil)
		return res, preds, err
	}

	c.epoch = make([]int64, plan.Shards)
	c.leases = make(map[int64]*lease)
	c.restoreCheckpoint()
	for si := 0; si < plan.Shards; si++ {
		if c.done[si] == nil {
			c.pending = append(c.pending, si)
		}
	}

	lctx, cancel := context.WithCancel(ctx)
	defer c.drainLeases(cancel)

	ticker := time.NewTicker(c.tickEvery())
	defer ticker.Stop()
	for len(c.done) < plan.Shards {
		c.grantAll(lctx)
		if err := c.checkStalled(); err != nil {
			c.flushCheckpoint()
			return core.SearchResult{}, preds, err
		}
		select {
		case <-ctx.Done():
			c.flushCheckpoint()
			return core.SearchResult{}, preds, ctx.Err()
		case oc := <-c.resc:
			c.handleOutcome(oc)
		case <-ticker.C:
			c.expireAndSteal(lctx)
		}
	}
	c.drainGrace()
	c.consumeCheckpoint()
	res, err := core.MergeShardResults(h, plan.Shards, c.done)
	if err == nil {
		c.root.Point("merged", obs.F("trials", res.Trials), obs.F("best", len(res.Best)))
	}
	return res, preds, err
}

// drainGrace consumes late lease outcomes for up to DrainGrace after the
// done-set completed, so straggler deliveries hit the epoch fence (and
// the rejection counters) instead of being cancelled unseen.
func (c *Coordinator) drainGrace() {
	if c.o.DrainGrace <= 0 {
		return
	}
	timeout := time.After(c.o.DrainGrace)
	for len(c.leases) > 0 {
		select {
		case oc := <-c.resc:
			c.handleOutcome(oc)
		case <-timeout:
			return
		}
	}
}

// tickEvery is the expiry/steal scan cadence: fine enough to catch short
// test TTLs and steal thresholds, bounded so production polls stay cheap.
func (c *Coordinator) tickEvery() time.Duration {
	d := c.o.LeaseTTL / 4
	if s := c.o.StealAfter / 2; s < d {
		d = s
	}
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// grantAll splits the pending queue into contiguous prefix groups across
// the idle workers and grants one lease per worker.
func (c *Coordinator) grantAll(ctx context.Context) {
	for len(c.pending) > 0 {
		var idle []*worker
		for _, w := range c.workers {
			if !w.busy && !w.quarantined {
				idle = append(idle, w)
			}
		}
		if len(idle) == 0 {
			return
		}
		n := (len(c.pending) + len(idle) - 1) / len(idle)
		if c.o.MaxLeaseShards > 0 && n > c.o.MaxLeaseShards {
			n = c.o.MaxLeaseShards
		}
		c.grant(ctx, idle[0], c.pending[:n])
		c.pending = c.pending[n:]
	}
}

// grant leases the shard group to the worker: bump each shard's epoch,
// record the grant, and start the lease goroutine that submits, polls,
// renews and delivers the outcome.
func (c *Coordinator) grant(ctx context.Context, w *worker, shards []int) {
	if err := c.o.Inject.Fire("dist.grant"); err != nil {
		// An injected grant fault models a coordinator-side submission
		// bug: the shards stay pending and the next loop iteration (or
		// worker) retries them.
		c.o.Metrics.Inc("dist.grant_faults")
		return
	}
	c.nextID++
	l := &lease{
		id:      c.nextID,
		worker:  w,
		shards:  append([]int(nil), shards...),
		epochs:  make(map[int]int64, len(shards)),
		granted: time.Now(),
	}
	for _, si := range l.shards {
		c.epoch[si]++
		l.epochs[si] = c.epoch[si]
	}
	l.renew(time.Now().Add(c.o.LeaseTTL))
	l.hardStop = l.granted.Add(c.o.MaxLease)
	w.busy = true
	c.leases[l.id] = l
	c.o.Metrics.Inc("dist.leases.granted")
	c.o.Log.Info("lease granted", "lease", l.id, "worker", w.url,
		"shards", len(l.shards), "first", l.shards[0], "last", l.shards[len(l.shards)-1])
	c.wg.Add(1)
	go c.runLease(ctx, l)
}

// requeue returns the lease's still-authoritative unfinished shards to the
// pending queue under fresh epochs, fencing the old holder out. Idempotent:
// shards already superseded or done are skipped, so an expired lease whose
// outcome later also fails doesn't requeue twice.
func (c *Coordinator) requeue(l *lease, reason string) {
	var moved int
	for _, si := range l.shards {
		if c.done[si] != nil || c.epoch[si] != l.epochs[si] {
			continue
		}
		c.epoch[si]++
		c.pending = append(c.pending, si)
		moved++
	}
	if moved == 0 {
		return
	}
	sort.Ints(c.pending)
	c.o.Metrics.Add("dist.shards.reassigned", int64(moved))
	c.o.Log.Warn("lease shards reassigned", "lease", l.id, "worker", l.worker.url,
		"shards", moved, "reason", reason)
	c.root.Point("reassign", obs.F("lease", l.id), obs.F("shards", moved),
		obs.F("reason", reason))
}

// handleOutcome processes one lease's terminal delivery on the Run loop.
func (c *Coordinator) handleOutcome(o outcome) {
	l := o.l
	l.finished = true
	l.worker.busy = false
	delete(c.leases, l.id)
	if o.err != nil {
		c.o.Metrics.Inc("dist.workers.failed")
		l.worker.consecFails++
		if l.worker.consecFails >= c.o.MaxWorkerFailures && !l.worker.quarantined {
			l.worker.quarantined = true
			c.o.Metrics.Inc("dist.workers.quarantined")
			c.o.Log.Error("worker quarantined", "worker", l.worker.url,
				"consecutiveFailures", l.worker.consecFails)
		}
		c.o.Log.Warn("lease failed", "lease", l.id, "worker", l.worker.url, "error", o.err)
		c.requeue(l, "failed")
		return
	}
	l.worker.consecFails = 0
	for _, si := range l.shards {
		res := o.resp.Results[si]
		switch {
		case res == nil:
			// A complete response always carries every requested shard;
			// treat a hole like a failure of just that shard.
			c.o.Metrics.Inc("dist.results.missing")
			if c.done[si] == nil && c.epoch[si] == l.epochs[si] {
				c.epoch[si]++
				c.pending = append(c.pending, si)
				sort.Ints(c.pending)
				c.o.Metrics.Add("dist.shards.reassigned", 1)
			}
		case c.epoch[si] != l.epochs[si]:
			// The fence: this lease's authority over the shard was
			// revoked (expiry, failure requeue, or a steal) — its result
			// must not reach the merge, even when it is the first to
			// arrive. The current holder's result is authoritative.
			c.o.Metrics.Inc("dist.results.rejected.superseded")
			c.o.Log.Info("superseded result rejected", "lease", l.id, "shard", si,
				"leaseEpoch", l.epochs[si], "currentEpoch", c.epoch[si])
			c.root.Point("reject", obs.F("shard", si), obs.F("lease", l.id),
				obs.F("reason", "superseded"))
		case c.done[si] != nil:
			// Same-epoch double delivery cannot happen by construction
			// (epochs are unique per grant); this guards the merge anyway.
			c.o.Metrics.Inc("dist.results.rejected.duplicate")
			c.root.Point("reject", obs.F("shard", si), obs.F("lease", l.id),
				obs.F("reason", "duplicate"))
		default:
			c.done[si] = res
			c.ckptDue++
			c.o.Metrics.Inc("dist.results.accepted")
		}
	}
	c.maybeCheckpoint()
}

// expireAndSteal is the ticker pass: expire leases whose renewals stopped
// (or that hit the hard cap), then re-split the tail of slow leases onto
// idle workers.
func (c *Coordinator) expireAndSteal(ctx context.Context) {
	now := time.Now()
	for _, l := range c.leases {
		if l.finished || l.expired {
			continue
		}
		if now.Before(l.deadline()) && now.Before(l.hardStop) {
			continue
		}
		l.expired = true
		c.o.Metrics.Inc("dist.leases.expired")
		c.o.Log.Warn("lease expired", "lease", l.id, "worker", l.worker.url,
			"age", now.Sub(l.granted).Round(time.Millisecond))
		c.requeue(l, "expired")
	}
	c.steal(ctx, now)
}

// steal re-dispatches the tail of the oldest slow lease when workers sit
// idle with nothing pending: the stolen shards bump epochs (fencing the
// straggler out of them) and go straight back through the normal grant
// path. The victim keeps its remaining shards.
func (c *Coordinator) steal(ctx context.Context, now time.Time) {
	if len(c.pending) > 0 {
		return
	}
	idle := 0
	for _, w := range c.workers {
		if !w.busy && !w.quarantined {
			idle++
		}
	}
	if idle == 0 {
		return
	}
	var victim *lease
	var victimAuth []int
	for _, l := range c.leases {
		if l.finished || l.expired || now.Sub(l.granted) < c.o.StealAfter {
			continue
		}
		var auth []int
		for _, si := range l.shards {
			if c.done[si] == nil && c.epoch[si] == l.epochs[si] {
				auth = append(auth, si)
			}
		}
		if len(auth) == 0 {
			continue
		}
		if victim == nil || l.granted.Before(victim.granted) {
			victim, victimAuth = l, auth
		}
	}
	if victim == nil {
		return
	}
	sort.Ints(victimAuth)
	tail := victimAuth[len(victimAuth)/2:]
	if len(tail) == 0 {
		return
	}
	for _, si := range tail {
		c.epoch[si]++
		c.pending = append(c.pending, si)
	}
	sort.Ints(c.pending)
	c.o.Metrics.Inc("dist.leases.stolen")
	c.o.Metrics.Add("dist.shards.stolen", int64(len(tail)))
	c.o.Log.Info("work stolen from straggler", "lease", victim.id,
		"worker", victim.worker.url, "shards", len(tail))
	c.root.Point("steal", obs.F("lease", victim.id), obs.F("shards", len(tail)))
	c.grantAll(ctx)
}

// checkStalled fails the search when shards remain but no lease is in
// flight and every worker is quarantined — waiting would hang forever.
func (c *Coordinator) checkStalled() error {
	if len(c.pending) == 0 && len(c.done) < c.plan.Shards && len(c.leases) == 0 {
		// Shards neither pending nor leased nor done cannot happen; guard
		// against it the same way as total worker loss.
		return fmt.Errorf("dist: %d shards lost with no lease in flight",
			c.plan.Shards-len(c.done))
	}
	if len(c.pending) == 0 || len(c.leases) > 0 {
		return nil
	}
	for _, w := range c.workers {
		if !w.quarantined {
			return nil
		}
	}
	return fmt.Errorf("dist: all %d workers quarantined with %d shards unfinished",
		len(c.workers), c.plan.Shards-len(c.done))
}

// drainLeases cancels outstanding lease goroutines and absorbs their
// final outcomes so Run never leaks goroutines.
func (c *Coordinator) drainLeases(cancel context.CancelFunc) {
	cancel()
	donec := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(donec)
	}()
	for {
		select {
		case <-c.resc:
		case <-donec:
			return
		}
	}
}
