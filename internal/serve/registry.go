// Package serve is the HTTP service plane of CHOP: a long-lived server
// that supervises partitioning runs submitted over a JSON API, executes
// them on a bounded worker pool, and exposes their internals live — per-run
// state, Server-Sent-Event trace streams backed by a bounded replay ring,
// Prometheus metrics, health/readiness and pprof.
//
// The package is dependency-free (net/http only) and layered: Registry is
// the run supervisor (admission, priority queue, worker pool, lifecycle,
// cancellation, preemption), admission.go is the multi-tenant admission
// table (API keys, quotas, rate limits), jobs.go maps run kinds onto the
// pipeline (eval, synth, exp1/exp2), and server.go, middleware.go and
// handlers.go put the HTTP surface on top.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chop/internal/bad"
	"chop/internal/obs"
	"chop/internal/resilience"
)

// State is a run's lifecycle position.
type State string

// Run lifecycle states. queued → running → done|failed|canceled; a queued
// run may go straight to canceled, and a preempted running run goes back
// to queued (resuming from its checkpoint when redispatched).
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobContext carries the per-run observability plumbing into a job: a
// tracer feeding the run's replay ring (and any live SSE subscribers), the
// server-wide metrics registry every job writes into, a logger pre-tagged
// with the run id, and the server-wide prediction cache shared by every
// run (content-keyed, so reuse across differing specs is safe).
type JobContext struct {
	Tracer  *obs.Tracer
	Metrics *obs.Metrics
	Log     *slog.Logger
	Cache   *bad.PredictCache
	// Stats is the run's own search record: jobs wire it into core.Config
	// so /stats reports per-shard progress while the run executes, and an
	// eval run's result takes its rejections per reason from it.
	Stats *obs.RunStats
	// Phases is the run's phase-cost accounter: jobs wire it into
	// core.Config so the /stats endpoints can break the run's trial time
	// into pipeline phases (predict, schedule, xfer, integrate, ...).
	Phases *obs.PhaseAccounter
	// Checkpoint is the run's search-checkpoint path (empty: none). Jobs
	// that search wire it into core.Config; a matching shard log left by an
	// interrupted (or preempted) earlier run is resumed automatically.
	Checkpoint string
	// Inject is the server-wide fault-injection harness (nil in
	// production). Jobs pass it down so injected faults reach the pipeline.
	Inject *resilience.Injector
}

// Job prepares one run kind: it decodes and validates a submitted spec,
// so a malformed submission is rejected at the API boundary (400) instead
// of surfacing as a failed run, and returns the run's body. It runs once
// per submission; the registry runs the body it returned, again after a
// preemption, without decoding the spec a second time.
type Job func(spec json.RawMessage) (JobFunc, error)

// JobFunc is one run's body. The context is cancelled on run cancellation,
// preemption and server shutdown; implementations must return promptly
// once it is done (the core pipeline does, via Config.Ctx). The returned
// value is serialized as the run's result JSON.
type JobFunc func(ctx context.Context, jc JobContext) (any, error)

// Run is one supervised unit of work. All fields are guarded by mu; the
// HTTP layer reads through Status().
type Run struct {
	mu        sync.Mutex
	id        string
	seq       int64 // submission order, the FIFO key within a priority class
	kind      string
	tenant    string
	priority  int
	spec      json.RawMessage
	body      JobFunc // decoded from spec at submit; kept until a terminal state
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    any
	errMsg    string
	// cancelled marks a cancel requested while a worker owns the run
	// outside the queue (dispatched but not started, or preempted and not
	// yet requeued) or at the shutdown flush; execute finalizes it.
	cancelled bool
	cancel    context.CancelFunc

	// preempt cancels the running job with ErrPreempted as the cause;
	// preemptWanted records a request that raced job startup so execute can
	// honor it the moment the cancel machinery exists. preemptions counts
	// how many times this run was displaced and requeued.
	preempt       context.CancelFunc
	preemptWanted bool
	preemptions   int

	timeout    time.Duration // wall-clock deadline (0: registry default)
	checkpoint string        // search checkpoint path (empty: none)
	maxRunning int           // the tenant's running quota (0: none)
	// trace is the run's distributed-trace identity: the trace ID the run's
	// spans carry (adopted from the caller's context or minted at submit)
	// and, when submitted over HTTP, the request span the run's root span
	// hangs under in a stitched trace.
	trace obs.TraceContext

	ring   *obs.RingSink
	stats  *obs.RunStats
	phases *obs.PhaseAccounter
	// accepted is the run's status at submission, taken before any worker
	// can dispatch it: the 202 reply reports the queued run it accepted.
	accepted RunStatus
}

// ID returns the run's registry identifier.
func (r *Run) ID() string { return r.id }

// Ring returns the run's bounded trace ring, for streaming subscribers.
func (r *Run) Ring() *obs.RingSink { return r.ring }

// Stats returns the run's live search-progress aggregator. Valid (and
// snapshot-able) from submission on; it reports empty until the job's
// search starts publishing.
func (r *Run) Stats() *obs.RunStats { return r.stats }

// requestPreempt asks the running job to stop with ErrPreempted as its
// cancellation cause. Safe in the dispatch→execute window where the cancel
// machinery does not exist yet: the request is latched and honored as soon
// as execute installs it.
func (r *Run) requestPreempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.preemptWanted = true
	if r.preempt != nil {
		r.preempt()
	}
}

// RunStatus is the API view of a run.
type RunStatus struct {
	ID        string          `json:"id"`
	Kind      string          `json:"kind"`
	State     State           `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Started   *time.Time      `json:"started,omitempty"`
	Finished  *time.Time      `json:"finished,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    any             `json:"result,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	// Tenant and Priority identify the submitting tenant's admission class
	// on an -api-keys server; Preemptions counts how many times this run
	// was displaced by higher-priority work and requeued.
	Tenant      string `json:"tenant,omitempty"`
	Priority    int    `json:"priority,omitempty"`
	Preemptions int    `json:"preemptions,omitempty"`
	// TraceEvents is the number of trace events currently retained for
	// replay; TraceDropped how many older ones the bounded ring has
	// already discarded.
	TraceEvents  int   `json:"traceEvents"`
	TraceDropped int64 `json:"traceDropped"`
	// TraceID is the W3C trace ID every span of this run carries — the
	// caller's when the submission propagated one, otherwise minted at
	// submit. Feed it to `chop trace` to find this run in stitched output.
	TraceID string `json:"traceId,omitempty"`
}

// Status snapshots the run. withDetail adds the result payload and the
// submitted spec (list views stay lean).
func (r *Run) Status(withDetail bool) RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:           r.id,
		Kind:         r.kind,
		State:        r.state,
		Submitted:    r.submitted,
		Error:        r.errMsg,
		Tenant:       r.tenant,
		Priority:     r.priority,
		Preemptions:  r.preemptions,
		TraceEvents:  r.ring.Len(),
		TraceDropped: r.ring.Overwritten(),
		TraceID:      r.trace.TraceID,
	}
	if !r.started.IsZero() {
		t := r.started
		st.Started = &t
	}
	if !r.finished.IsZero() {
		t := r.finished
		st.Finished = &t
	}
	if withDetail {
		st.Result = r.result
		st.Spec = r.spec
	}
	return st
}

// Submission errors, distinguished by the API layer's status mapping.
// Admission rejections (ErrBadKey, ErrRateLimited, ErrOverQuota) live in
// admission.go.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 503 + Retry-After: retry later).
	ErrQueueFull = errors.New("run queue full")
	// ErrDraining rejects submissions during graceful shutdown (503).
	ErrDraining = errors.New("server draining")
	// ErrUnknownKind rejects an unsupported run kind (400).
	ErrUnknownKind = errors.New("unknown run kind")
	// ErrBadCheckpoint rejects a submission whose checkpoint name cannot be
	// resolved: checkpointing is disabled server-side, or the name is not a
	// plain relative path inside the configured checkpoint directory (400).
	ErrBadCheckpoint = errors.New("invalid checkpoint")
)

// ErrJobTimeout is the cancellation cause of a run that exhausted its
// wall-clock deadline. It distinguishes an expired deadline (the run is
// marked failed, with this reason) from an operator or shutdown
// cancellation (marked canceled) and from preemption (requeued).
var ErrJobTimeout = errors.New("job deadline exceeded")

// Registry supervises runs: a priority queue feeding a fixed worker pool
// through per-tenant admission gates, with per-run cancellation,
// preemption of checkpointable runs, and observability. It is the non-HTTP
// heart of the service plane, fully testable without sockets.
type Registry struct {
	mu   sync.Mutex
	cond *sync.Cond // signalled on enqueue, slot release, shutdown

	runs map[string]*Run
	// pending is the dispatch queue, kept sorted by (priority desc, seq
	// asc); running holds the runs in worker slots. The two are the one
	// record of where a live run is: tenant quotas and state counts are
	// read from them. finished tallies by terminal state the runs that
	// left both for good. preempting marks victims whose preemption was
	// requested but has not requeued yet, so one submission burst does not
	// displace more runs than it needs.
	pending    []*Run
	running    map[string]*Run
	finished   map[State]int
	preempting map[string]bool

	nextID     atomic.Int64
	jobs       map[string]Job
	adm        *admission
	metrics    *obs.Metrics
	log        *slog.Logger
	cache      *bad.PredictCache
	workers    int
	queueDepth int
	jobTimeout time.Duration
	ckptDir    string
	inject     *resilience.Injector
	traceSink  obs.Sink
	baseCtx    context.Context
	stopAll    context.CancelFunc
	wg         sync.WaitGroup
	draining   atomic.Bool
}

// NewRegistry builds the registry and starts its worker pool. It ignores
// the HTTP-side options Addr, ShutdownGrace and TraceSampleRate.
func NewRegistry(opts Options) *Registry {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.NumCPU()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Jobs == nil {
		opts.Jobs = DefaultJobs()
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewMetrics()
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var cache *bad.PredictCache
	if opts.PredictCache >= 0 {
		cache = bad.NewPredictCache(opts.PredictCache)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		runs:       make(map[string]*Run),
		running:    make(map[string]*Run),
		finished:   make(map[State]int),
		preempting: make(map[string]bool),
		jobs:       opts.Jobs,
		adm:        newAdmission(opts.Tenants),
		metrics:    opts.Metrics,
		log:        opts.Log,
		cache:      cache,
		workers:    opts.MaxConcurrent,
		queueDepth: opts.QueueDepth,
		jobTimeout: opts.DefaultJobTimeout,
		ckptDir:    opts.CheckpointDir,
		inject:     opts.Inject,
		traceSink:  opts.TraceSink,
		baseCtx:    ctx,
		stopAll:    cancel,
	}
	r.cond = sync.NewCond(&r.mu)
	for i := 0; i < r.workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Metrics returns the server-wide registry runs merge into.
func (r *Registry) Metrics() *obs.Metrics { return r.metrics }

// MaxConcurrent returns the worker-pool bound.
func (r *Registry) MaxConcurrent() int { return r.workers }

// QueueLen returns the current backlog length.
func (r *Registry) QueueLen() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// TenantOccupancies snapshots every configured tenant (nil on an
// open-access registry): its runs in the queue and in worker slots, and
// its token level. The chaos suites assert both counts return to zero
// after a drain.
func (r *Registry) TenantOccupancies() []TenantOccupancy {
	occ := r.adm.occupancy()
	if occ == nil {
		return nil
	}
	byName := make(map[string]*TenantOccupancy, len(occ))
	for i := range occ {
		byName[occ[i].Name] = &occ[i]
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, run := range r.pending {
		byName[run.tenant].Queued++
	}
	for _, run := range r.running {
		byName[run.tenant].Running++
	}
	return occ
}

// SubmitOptions carries per-run execution policy alongside the spec.
type SubmitOptions struct {
	// APIKey is the submitting tenant's credential. Required (and checked
	// against the tenant table) when the registry is admission-controlled;
	// ignored on an open-access registry.
	APIKey string
	// Timeout bounds the run's wall clock once it starts executing. 0
	// falls back to the registry's DefaultJobTimeout; negative means
	// explicitly unbounded even when a default exists.
	Timeout time.Duration
	// Checkpoint names the run's search checkpoint: a plain relative path
	// resolved inside the registry's CheckpointDir (never an arbitrary
	// filesystem path). Resubmitting with the same name resumes a matching
	// snapshot from an interrupted earlier run. Non-empty names are rejected
	// with ErrBadCheckpoint when no CheckpointDir is configured or the name
	// escapes it. A checkpoint also marks the run preemptable: a
	// higher-priority submission may displace it mid-flight, to be resumed
	// from the snapshot later.
	Checkpoint string
	// Trace links the run into the caller's distributed trace: a valid
	// TraceID is adopted for every span the run emits (minted otherwise),
	// a valid SpanID becomes the remote parent of the run's root span, and
	// Sampled gates recording into the registry's TraceSink. The HTTP layer
	// fills this from the request's traceparent; locally-rooted runs (zero
	// value) mint their own sampled trace.
	Trace obs.TraceContext
}

// resolveCheckpoint maps a client-supplied checkpoint name onto a file
// inside the configured checkpoint directory. The name must be local in
// the filepath.IsLocal sense — relative, within the directory, no ".."
// traversal — because the resolved path is overwritten atomically on every
// snapshot and removed on success with the server's privileges.
func (r *Registry) resolveCheckpoint(name string) (string, error) {
	if name == "" {
		return "", nil
	}
	if r.ckptDir == "" {
		return "", fmt.Errorf("%w: server has no checkpoint directory", ErrBadCheckpoint)
	}
	if !filepath.IsLocal(name) {
		return "", fmt.Errorf("%w: name %q escapes the checkpoint directory", ErrBadCheckpoint, name)
	}
	return filepath.Join(r.ckptDir, name), nil
}

// Submit validates and enqueues a run, returning it in StateQueued. It
// never blocks: a full queue or a draining registry rejects immediately.
func (r *Registry) Submit(kind string, spec json.RawMessage) (*Run, error) {
	return r.SubmitWith(kind, spec, SubmitOptions{})
}

// SubmitWith is Submit with per-run execution policy. Submissions pass the
// admission gates — API key, then rate limit — before the kind, the spec
// and the checkpoint name are read, so an unauthenticated caller gets
// nothing parsed; then the tenant's queue quota and the registry-wide
// backpressure checks (draining, global queue depth), under the lock that
// enqueues. Every admission rejection increments its
// serve.admission.rejected.* counter so backpressure is observable per
// reason.
func (r *Registry) SubmitWith(kind string, spec json.RawMessage, opts SubmitOptions) (*Run, error) {
	tenant, err := r.adm.admit(opts.APIKey)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadKey):
			r.metrics.Inc("serve.admission.rejected.bad_key")
		case errors.Is(err, ErrRateLimited):
			r.metrics.Inc("serve.admission.rejected.rate_limited")
		}
		return nil, err
	}
	job, ok := r.jobs[kind]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownKind, kind)
	}
	body, err := job(spec)
	if err != nil {
		return nil, err
	}
	checkpoint, err := r.resolveCheckpoint(opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	reject := func(counter string, err error) (*Run, error) {
		r.metrics.Inc("serve.runs.rejected")
		if counter != "" {
			r.metrics.Inc(counter)
		}
		return nil, err
	}
	if r.draining.Load() {
		return reject("", ErrDraining)
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = r.jobTimeout
	}
	if timeout < 0 {
		timeout = 0
	}
	trace := opts.Trace
	if !obs.ValidTraceID(trace.TraceID) {
		// Locally-rooted run: mint the trace here (not in the tracer) so the
		// ID is reportable from the moment the run is queued, and record it.
		trace = obs.TraceContext{TraceID: obs.NewTraceID(), Sampled: true}
	}
	run := &Run{
		kind:       kind,
		tenant:     tenant.Name,
		priority:   tenant.Priority,
		maxRunning: tenant.MaxRunning,
		spec:       spec,
		body:       body,
		state:      StateQueued,
		submitted:  time.Now(),
		timeout:    timeout,
		checkpoint: checkpoint,
		trace:      trace,
		ring:       obs.NewRingSink(0),
	}
	r.mu.Lock()
	// Re-check under the lock: Shutdown flips draining while holding mu, so
	// a submission cannot slip between the drain flag and the queue flush
	// and end up queued forever after the workers have exited.
	if r.draining.Load() {
		r.mu.Unlock()
		return reject("", ErrDraining)
	}
	if r.queueFullLocked(tenant) {
		r.mu.Unlock()
		r.metrics.Inc("serve.admission.rejected.over_quota")
		// No refill schedule to predict here; hint one polling interval.
		return nil, &RetryAfterError{Err: ErrOverQuota, RetryAfter: time.Second}
	}
	if len(r.pending) >= r.queueDepth {
		r.mu.Unlock()
		return reject("serve.admission.rejected.queue_full", ErrQueueFull)
	}
	run.seq = r.nextID.Add(1)
	run.id = fmt.Sprintf("r-%06d", run.seq)
	run.stats = obs.NewRunStats(run.id)
	// The accounter is attached up front so stats snapshots carry the phase
	// breakdown from the first trial on.
	run.phases = obs.NewPhaseAccounter()
	run.stats.AttachPhases(run.phases)
	run.accepted = run.Status(false)
	r.enqueueLocked(run)
	r.runs[run.id] = run
	r.maybePreemptLocked()
	queued := len(r.pending)
	r.mu.Unlock()
	r.metrics.Inc("serve.runs.submitted")
	r.metrics.Inc("serve.admission.admitted")
	r.log.Info("run submitted", "run", run.id, "kind", kind, "tenant", run.tenant,
		"priority", run.priority, "trace_id", run.trace.TraceID, "queue", queued)
	return run, nil
}

// enqueueLocked inserts the run into pending, keeping the dispatch order:
// priority descending, submission sequence ascending within a class. A
// preempted run keeps its original sequence, so it resumes ahead of
// everything submitted after it at the same priority.
func (r *Registry) enqueueLocked(run *Run) {
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		if p.priority != run.priority {
			return p.priority < run.priority
		}
		return p.seq > run.seq
	})
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = run
	r.cond.Broadcast()
}

// queueFullLocked reports whether the tenant's queue quota is used up,
// counted in the queue. Caller holds mu.
func (r *Registry) queueFullLocked(tenant TenantConfig) bool {
	if tenant.MaxQueued <= 0 {
		return false
	}
	n := 0
	for _, run := range r.pending {
		if run.tenant == tenant.Name {
			n++
		}
	}
	return n >= tenant.MaxQueued
}

// canRunLocked reports whether run's tenant is under its running quota,
// counted in the worker slots. Caller holds mu.
func (r *Registry) canRunLocked(run *Run) bool {
	if run.maxRunning <= 0 {
		return true
	}
	n := 0
	for _, other := range r.running {
		if other.tenant == run.tenant {
			n++
		}
	}
	return n < run.maxRunning
}

// dispatchLocked pops the first dispatchable pending run — highest
// priority whose tenant is under its running quota — or nil when nothing
// is eligible. Caller holds mu.
func (r *Registry) dispatchLocked() *Run {
	for i, run := range r.pending {
		if !r.canRunLocked(run) {
			continue
		}
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
		r.running[run.id] = run
		return run
	}
	return nil
}

// maybePreemptLocked displaces a running checkpointable run when a
// higher-priority submission cannot be dispatched for lack of a free
// worker. The victim is the lowest-priority running run strictly below the
// waiting run's class; its job is cancelled with ErrPreempted as cause,
// execute requeues it (state back to queued, checkpoint retained), and the
// freed slot dispatches the preemptor. One victim per call — each
// submission frees at most the one slot it needs. Caller holds mu.
func (r *Registry) maybePreemptLocked() {
	if r.adm == nil || len(r.running) < r.workers {
		return
	}
	var want *Run // pending is sorted: the first dispatchable is the best
	for _, run := range r.pending {
		if r.canRunLocked(run) {
			want = run
			break
		}
	}
	if want == nil {
		return
	}
	var victim *Run
	for _, run := range r.running {
		if r.preempting[run.id] || run.checkpoint == "" || run.priority >= want.priority {
			continue
		}
		if victim == nil || run.priority < victim.priority ||
			(run.priority == victim.priority && run.seq > victim.seq) {
			victim = run // lowest class first; youngest within the class
		}
	}
	if victim == nil {
		return
	}
	r.preempting[victim.id] = true
	r.log.Info("run preemption requested", "victim", victim.id,
		"victim_priority", victim.priority, "for", want.id, "priority", want.priority)
	victim.requestPreempt()
}

// Get returns a run by id.
func (r *Registry) Get(id string) (*Run, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	run, ok := r.runs[id]
	return run, ok
}

// List returns every run's status in submission order.
func (r *Registry) List() []RunStatus {
	r.mu.Lock()
	runs := make([]*Run, 0, len(r.runs))
	for _, run := range r.runs {
		runs = append(runs, run)
	}
	r.mu.Unlock()
	slices.SortFunc(runs, bySeq)
	out := make([]RunStatus, len(runs))
	for i, run := range runs {
		out[i] = run.Status(false)
	}
	return out
}

// Cancel requests cancellation: a queued run is finalized immediately
// (removed from the dispatch queue); a running run has its context
// cancelled (the pipeline stops at the next trial boundary). A queued run
// a worker has already taken off the queue is left to that worker, which
// finalizes it as canceled before it starts. Cancelling a terminal run
// reports false.
func (r *Registry) Cancel(id string) (bool, error) {
	r.mu.Lock()
	run, ok := r.runs[id]
	if !ok {
		r.mu.Unlock()
		return false, fmt.Errorf("run %q not found", id)
	}
	run.mu.Lock()
	switch run.state {
	case StateQueued:
		i := slices.Index(r.pending, run)
		if i < 0 {
			// Dispatched but not started, or preempted and not yet
			// requeued: finalizing here would race the worker that owns it.
			run.cancelled = true
			run.mu.Unlock()
			r.mu.Unlock()
			return true, nil
		}
		// Finalize in place: pull it out of pending so it neither occupies
		// a queue slot nor waits on tenant eligibility to die.
		r.pending = slices.Delete(r.pending, i, i+1)
		r.finished[StateCanceled]++
		r.mu.Unlock()
		r.finishCanceled(run)
		r.log.Info("run canceled while queued", "run", run.id)
		return true, nil
	case StateRunning:
		cancel := run.cancel // set before the state became running
		run.mu.Unlock()
		r.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true, nil
	default:
		run.mu.Unlock()
		r.mu.Unlock()
		return false, nil
	}
}

// CacheStats snapshots the server-wide prediction cache's hit/miss
// counters; ok is false when caching is disabled.
func (r *Registry) CacheStats() (stats bad.CacheStats, ok bool) {
	if r.cache == nil {
		return bad.CacheStats{}, false
	}
	return r.cache.Stats(), true
}

// ActiveRunStats snapshots the live search stats of every currently
// running run, submission order — the per-run rows of /api/v1/stats.
func (r *Registry) ActiveRunStats() []obs.RunStatsSnapshot {
	r.mu.Lock()
	runs := make([]*Run, 0, len(r.running))
	for _, run := range r.running {
		runs = append(runs, run)
	}
	r.mu.Unlock()
	slices.SortFunc(runs, bySeq)
	var out []obs.RunStatsSnapshot
	for _, run := range runs {
		run.mu.Lock()
		running := run.state == StateRunning
		run.mu.Unlock()
		if running {
			out = append(out, run.stats.Snapshot())
		}
	}
	return out
}

// bySeq orders runs by submission.
func bySeq(a, b *Run) int { return cmp.Compare(a.seq, b.seq) }

// CountByState tallies runs per lifecycle state, for the /metrics gauges:
// the queue's runs, the state of each run in a worker slot, and the tally
// of finished runs. States with no run are left out.
func (r *Registry) CountByState() map[State]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[State]int, 5)
	for state, n := range r.finished {
		out[state] = n
	}
	if n := len(r.pending); n > 0 {
		out[StateQueued] = n
	}
	for _, run := range r.running {
		run.mu.Lock()
		out[run.state]++
		run.mu.Unlock()
	}
	return out
}

// finishCanceled ends a run that will not execute (again) as canceled. The
// caller holds run.mu, and finishCanceled releases it: the terminal state is
// published before the ring closes, so a client that sees the SSE done event
// never reads a non-terminal run. The finished tally and logging stay with
// the caller.
func (r *Registry) finishCanceled(run *Run) {
	run.state = StateCanceled
	run.body = nil
	run.finished = time.Now()
	run.errMsg = context.Canceled.Error()
	run.mu.Unlock()
	run.ring.Close()
	r.metrics.Inc("serve.runs.canceled")
}

// worker executes dispatchable runs until shutdown.
func (r *Registry) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		var run *Run
		for {
			if r.baseCtx.Err() != nil {
				r.mu.Unlock()
				return
			}
			if run = r.dispatchLocked(); run != nil {
				break
			}
			r.cond.Wait()
		}
		r.mu.Unlock()
		state := r.execute(run)
		r.mu.Lock()
		delete(r.running, run.id)
		delete(r.preempting, run.id)
		switch {
		case state == StateQueued && !r.draining.Load():
			// draining is re-checked under mu: Shutdown flips it (and
			// flushes pending) under the same lock, so a preempted run
			// either re-enters pending before the flush or is finalized
			// below — never re-enqueued behind an exiting worker pool.
			r.enqueueLocked(run)
		case state == StateQueued:
			run.mu.Lock()
			r.finishCanceled(run)
			r.finished[StateCanceled]++
		default:
			r.finished[state]++
		}
		r.cond.Broadcast() // a slot freed: re-evaluate eligibility
		r.mu.Unlock()
	}
}

// execute drives one run through its lifecycle and returns the state it
// left the run in: StateQueued when the run was preempted and must be
// requeued, otherwise the terminal state.
func (r *Registry) execute(run *Run) State {
	run.mu.Lock()
	if run.cancelled || r.baseCtx.Err() != nil {
		r.finishCanceled(run)
		r.log.Info("run canceled before start", "run", run.id)
		return StateCanceled
	}
	// The run's context layers the wall-clock deadline (when one applies)
	// over a preemption layer over the registry-wide cancellation. Each
	// carries its cause — ErrJobTimeout for an expired deadline,
	// ErrPreempted for displacement — so the outcome classification below
	// can tell "too slow" from "told to stop" from "make room".
	pctx, preemptCause := context.WithCancelCause(r.baseCtx)
	var ctx context.Context
	var cancel context.CancelFunc
	if run.timeout > 0 {
		ctx, cancel = context.WithTimeoutCause(pctx, run.timeout, ErrJobTimeout)
	} else {
		ctx, cancel = context.WithCancel(pctx)
	}
	defer preemptCause(context.Canceled)
	defer cancel()
	run.cancel = cancel
	run.preempt = func() { preemptCause(ErrPreempted) }
	if run.preemptWanted {
		// A preemption request raced dispatch; honor it now that the
		// machinery exists (the job will stop at its first trial boundary).
		run.preempt()
	}
	run.state = StateRunning
	run.started = time.Now()
	body := run.body
	run.mu.Unlock()

	log := r.log.With("run", run.id, "kind", run.kind, "trace_id", run.trace.TraceID)
	log.Info("run started")

	// The job body runs under the panic guard: a panicking pipeline (or an
	// injected "serve.job" panic) fails this run with a structured error
	// and a captured stack instead of taking down the server, and the
	// worker slot is freed as if the run had failed normally.
	// The run/kind pprof labels scope everything the job does on this
	// goroutine (and, via the context, the search workers it spawns), so a
	// CPU profile of a busy server slices per run.
	var result any
	var err error
	// Only a panic this guard recovers counts here: a search panic that
	// core already recovered (and counted) comes back as a plain error and
	// must not count twice.
	countPanic := func() { r.metrics.Inc("resilience.panic_recovered") }
	obs.DoLabeled(ctx, func(ctx context.Context) {
		err = resilience.GuardNotify("serve.job", func() error {
			if ierr := r.inject.FireCtx(ctx, "serve.job"); ierr != nil {
				return ierr
			}
			// Every event carries the run id (demuxable when multiplexed)
			// and the distributed identity: the caller's trace ID, and the
			// caller's request span as the remote parent of the run's root —
			// so `chop trace` hangs the run under the caller's waterfall.
			// Sampled runs additionally tee into the registry's trace sink.
			var sink obs.Sink = run.ring
			if r.traceSink != nil && run.trace.Sampled {
				sink = obs.NewTeeSink(run.ring, r.traceSink)
			}
			var jerr error
			result, jerr = body(ctx, JobContext{
				Tracer: obs.NewTracer(sink, obs.TracerOptions{
					Run:     run.id,
					Context: run.trace,
				}),
				Metrics:    r.metrics,
				Log:        log,
				Cache:      r.cache,
				Stats:      run.stats,
				Phases:     run.phases,
				Checkpoint: run.checkpoint,
				Inject:     r.inject,
			})
			return jerr
		}, countPanic)
	}, "run", run.id, "kind", run.kind, "trace", run.trace.TraceID)

	// A run only counts as timed out when the expired deadline actually
	// failed it — a job that completes successfully just as the deadline
	// fires stays Done and must not skew the timeout metric.
	timedOut := err != nil && errors.Is(context.Cause(ctx), ErrJobTimeout)
	// Preemption only displaces a run the preempt cause actually stopped:
	// a job that finished (or failed organically) despite the racing
	// request keeps its real outcome. A draining registry never requeues —
	// the run is canceled like any other in-flight work.
	preempted := err != nil && !timedOut &&
		errors.Is(context.Cause(ctx), ErrPreempted) &&
		errors.Is(err, context.Canceled) &&
		r.baseCtx.Err() == nil && !r.draining.Load()
	pe, panicked := resilience.IsPanic(err)

	if preempted {
		run.mu.Lock()
		run.state = StateQueued
		run.started = time.Time{}
		run.errMsg = ""
		run.cancel = nil
		run.preempt = nil
		run.preemptWanted = false
		run.preemptions++
		n := run.preemptions
		run.mu.Unlock()
		r.metrics.Inc("serve.admission.preempted")
		log.Info("run preempted, requeued", "preemptions", n, "checkpoint", run.checkpoint)
		return StateQueued
	}

	run.mu.Lock()
	run.finished = time.Now()
	run.body = nil
	dur := run.finished.Sub(run.started)
	switch {
	case err == nil:
		run.state = StateDone
		run.result = result
	case timedOut:
		// The deadline, not a cancel request, killed the context: the run
		// failed its contract.
		run.state = StateFailed
		run.errMsg = fmt.Sprintf("%v (after %v)", ErrJobTimeout, run.timeout)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		run.state = StateCanceled
		run.errMsg = err.Error()
	default:
		run.state = StateFailed
		run.errMsg = err.Error()
	}
	state := run.state
	run.mu.Unlock()
	// End the event stream only after the terminal state is published: a
	// client that waits for the SSE done event must never GET a run that
	// still reads running.
	run.ring.Close()

	if timedOut {
		r.metrics.Inc("serve.runs.timeout")
		// A distinct lifecycle record (beyond "run finished") so log-based
		// alerting can key on deadline kills per run id.
		log.Warn("run timed out", "timeout", run.timeout)
	}
	if panicked {
		log.Error("run panicked", "site", pe.Site, "value", fmt.Sprint(pe.Value))
	}

	r.metrics.Inc("serve.runs." + string(state))
	r.metrics.Observe("serve.run_duration_us", float64(dur.Nanoseconds())/1e3)
	log.Info("run finished", "state", string(state), "duration", dur, "err", err)
	return state
}

// Shutdown drains the registry: no new submissions, queued runs are
// cancelled, in-flight run contexts are cancelled, and the worker pool is
// awaited (bounded by ctx). Idempotent.
func (r *Registry) Shutdown(ctx context.Context) error {
	// The flag flips under mu so SubmitWith's locked re-check serializes
	// against it: every submission either sees draining (rejected) or has
	// already enqueued (the flush below reaches it).
	r.mu.Lock()
	r.draining.Store(true)
	r.mu.Unlock()
	r.stopAll() // cancels every in-flight run's context and stops workers
	// Flush the backlog: anything still queued becomes canceled. In-flight
	// preemptions observe draining and finalize as canceled rather than
	// requeueing behind a worker pool that is exiting.
	r.mu.Lock()
	flushed := r.pending
	r.pending = nil
	for _, run := range flushed {
		run.mu.Lock()
		run.cancelled = true
		r.finishCanceled(run)
		r.finished[StateCanceled]++
	}
	r.cond.Broadcast() // wake idle workers so they observe shutdown
	r.mu.Unlock()
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown timed out: %w", ctx.Err())
	}
}

// Draining reports whether Shutdown has begun.
func (r *Registry) Draining() bool { return r.draining.Load() }
