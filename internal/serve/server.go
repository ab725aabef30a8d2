package serve

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"chop/internal/obs"
	"chop/internal/resilience"
)

// Options parameterizes New and NewRegistry. Zero values select sensible
// defaults.
type Options struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// MaxConcurrent bounds simultaneously executing runs (default:
	// runtime.NumCPU()); QueueDepth bounds the backlog beyond that
	// (default 64; submissions beyond it fail fast with ErrQueueFull).
	MaxConcurrent int
	QueueDepth    int
	// ShutdownGrace bounds how long graceful shutdown waits for in-flight
	// work after cancelling it (default 10s).
	ShutdownGrace time.Duration
	// Log receives structured request and run-transition records
	// (default: discard).
	Log *slog.Logger
	// Metrics is the server-wide registry exposed on /metrics; nil
	// creates one. Running jobs write their pipeline metrics into it.
	Metrics *obs.Metrics
	// Jobs overrides the run-kind table (default DefaultJobs()); tests
	// inject synthetic jobs here.
	Jobs map[string]Job
	// PredictCache sizes the server-wide BAD prediction cache shared by
	// every run (positive: capacity in entries, 0: default capacity,
	// negative: disabled). Content keying makes cross-run sharing safe.
	PredictCache int
	// DefaultJobTimeout bounds every run's wall clock unless a submission
	// carries its own timeoutSec (0: unbounded).
	DefaultJobTimeout time.Duration
	// CheckpointDir is the directory submissions' checkpoint names resolve
	// into. Empty (the default) disables server-side checkpointing:
	// submissions carrying a checkpoint are rejected. Clients never supply
	// filesystem paths — only plain relative names inside this directory.
	CheckpointDir string
	// Tenants turns on multi-tenant admission control (-api-keys): every
	// submission must carry a configured API key and is subject to its
	// tenant's quotas, submit rate and priority class. Empty keeps the
	// server open-access.
	Tenants []TenantConfig
	// Inject enables fault injection on every run (nil in production).
	Inject *resilience.Injector
	// TraceSink, when set, records the server's side of every sampled
	// distributed trace as JSONL: one HTTP span per sampled request plus the
	// full trace of every sampled job run. Stitch the file with clients'
	// -trace files via `chop trace`. Nil disables server trace recording
	// (per-run rings and SSE streams still work).
	TraceSink obs.Sink
	// TraceSampleRate head-samples traces the server roots itself (requests
	// arriving without a traceparent): 0 selects the default of 1.0 (record
	// everything), a value in (0,1) records that fraction, negative records
	// none. Caller-supplied traceparents carry their own sampling verdict,
	// and error responses (status >= 400) are always recorded.
	TraceSampleRate float64
}

// Server is the CHOP service plane: run supervision plus the HTTP
// observability surface. Create with New, serve with ListenAndServe (or
// mount Handler() on infrastructure of your own), stop with Drain.
type Server struct {
	opts       Options
	log        *slog.Logger
	metrics    *obs.Metrics
	reg        *Registry
	traceSink  obs.Sink
	sampleRate float64
}

// New builds a Server and starts its worker pool. The server is
// immediately ready; it reports live on /healthz, and ready on /readyz
// until Drain.
func New(opts Options) *Server {
	if opts.Addr == "" {
		opts.Addr = ":8080"
	}
	if opts.ShutdownGrace <= 0 {
		opts.ShutdownGrace = 10 * time.Second
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.NewMetrics()
	}
	obs.RecordBuildInfo(opts.Metrics)
	rate := opts.TraceSampleRate
	switch {
	case rate == 0:
		rate = 1
	case rate < 0:
		rate = 0
	case rate > 1:
		rate = 1
	}
	s := &Server{opts: opts, log: opts.Log, metrics: opts.Metrics,
		traceSink: opts.TraceSink, sampleRate: rate}
	s.reg = NewRegistry(opts)
	return s
}

// Registry exposes the run supervisor (tests and embedders).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the full route table:
//
//	POST   /api/v1/runs                   submit a run
//	GET    /api/v1/runs                   list runs
//	GET    /api/v1/runs/{id}              one run, with result
//	DELETE /api/v1/runs/{id}              cancel a run
//	GET    /api/v1/runs/{id}/events       live trace stream (SSE)
//	GET    /api/v1/runs/{id}/stats        live search stats: aggregate + shard table
//	GET    /api/v1/stats                  server-wide telemetry snapshot
//	GET    /metrics                       Prometheus text exposition
//	GET    /healthz                       liveness
//	GET    /readyz                        readiness (503 while draining)
//	GET    /debug/pprof/...               net/http/pprof
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(name, false, h))
	}
	// SSE routes hold their connection open for the run's lifetime, so they
	// record time-to-first-byte into the request histograms and their full
	// lifetime into serve.http.stream_us instead (see instrument).
	stream := func(pattern, name string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(name, true, h))
	}
	route("POST /api/v1/runs", "submit", s.handleSubmit)
	route("GET /api/v1/runs", "list_runs", s.handleList)
	route("GET /api/v1/runs/{id}", "get_run", s.handleGet)
	route("DELETE /api/v1/runs/{id}", "cancel_run", s.handleCancel)
	stream("GET /api/v1/runs/{id}/events", "events", s.handleEvents)
	route("GET /api/v1/runs/{id}/stats", "run_stats", s.handleRunStats)
	route("GET /api/v1/stats", "stats", s.handleStats)
	route("GET /metrics", "metrics", s.handleMetrics)
	route("GET /healthz", "healthz", s.handleHealthz)
	route("GET /readyz", "readyz", s.handleReadyz)
	// pprof registers on the mux directly (its own handlers manage
	// content types); instrumented under one shared route label.
	mux.Handle("/debug/pprof/", s.instrument("pprof", false, http.HandlerFunc(pprof.Index)))
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Drain begins graceful shutdown: readiness flips to 503 (load balancers
// stop routing), new submissions are rejected, queued runs are cancelled,
// in-flight run contexts are cancelled, and the worker pool is awaited up
// to the shutdown grace. Idempotent; safe without ListenAndServe.
func (s *Server) Drain(ctx context.Context) error {
	s.log.Info("draining", "grace", s.opts.ShutdownGrace)
	dctx, cancel := context.WithTimeout(ctx, s.opts.ShutdownGrace)
	defer cancel()
	return s.reg.Shutdown(dctx)
}

// ListenAndServe serves until ctx is cancelled (SIGINT/SIGTERM in the
// CLI), then drains: readiness flips, in-flight runs are cancelled, open
// request contexts (including SSE streams) are cancelled, and the listener
// closes gracefully.
func (s *Server) ListenAndServe(ctx context.Context) error {
	// Request contexts derive from baseCtx so shutdown reaches streaming
	// handlers, which http.Server.Shutdown alone would wait on forever.
	baseCtx, cancelConns := context.WithCancel(context.Background())
	defer cancelConns()
	httpSrv := &http.Server{
		Addr:        s.opts.Addr,
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.log.Info("listening", "addr", ln.Addr().String(),
		"maxConcurrent", s.reg.MaxConcurrent())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err // listener died underneath us
	case <-ctx.Done():
	}
	drainErr := s.Drain(context.Background())
	cancelConns() // unblocks SSE streams so Shutdown can finish
	sctx, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(sctx); err != nil && drainErr == nil {
		drainErr = err
	}
	s.log.Info("stopped")
	return drainErr
}
