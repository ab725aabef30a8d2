package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"chop/internal/obs"
	"chop/internal/resilience"
	"chop/internal/serve"
)

// logFlags is the structured-logging flag pair shared by commands that emit
// slog records: -log-level selects the threshold, -log-json switches the
// handler from human-readable text to one-JSON-object-per-line.
type logFlags struct {
	level *string
	json  *bool
}

func addLogFlags(fs *flag.FlagSet) *logFlags {
	return &logFlags{
		level: fs.String("log-level", "info", "log threshold: debug, info, warn, error"),
		json:  fs.Bool("log-json", false, "emit logs as JSON lines instead of text"),
	}
}

// logger builds the slog.Logger the flags describe, writing to stderr so
// command output on stdout stays machine-consumable.
func (l *logFlags) logger() (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*l.level)); err != nil {
		return nil, fmt.Errorf("-log-level: %w", err)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if *l.json {
		h = slog.NewJSONHandler(os.Stderr, ho)
	} else {
		h = slog.NewTextHandler(os.Stderr, ho)
	}
	return slog.New(h), nil
}

// serveCmd runs the CHOP HTTP service plane until SIGINT/SIGTERM, then
// drains gracefully: readiness flips to 503, queued runs are cancelled,
// in-flight search contexts are cancelled, and open SSE streams close.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "max simultaneously executing runs (0 = NumCPU)")
	queue := fs.Int("queue", 0, "queued-run backlog beyond the concurrency bound (0 = default 64)")
	grace := fs.Duration("grace", 0, "graceful-shutdown grace period (0 = default 10s)")
	predictCache := fs.Int("predict-cache", 0, "server-wide BAD prediction cache entries (0 = default capacity, negative = disabled)")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-run wall-clock deadline; runs exceeding it are marked failed (0 = unbounded, overridable per submission via timeoutSec)")
	checkpointDir := fs.String("checkpoint-dir", "", "directory for search checkpoints named by submissions (empty = checkpointing disabled)")
	apiKeys := fs.String("api-keys", "", "tenant keyfile ({\"tenants\": [...]} JSON) enabling multi-tenant admission control; empty keeps the server open-access")
	injectSpec := fs.String("inject", "", "fault-injection spec for chaos testing (default: $"+resilience.EnvFaultInject+")")
	traceFile := fs.String("trace", "", "record the server's side of every sampled distributed trace (HTTP spans + job runs) as JSONL to this file; stitch with 'chop trace'")
	traceSample := fs.Float64("trace-sample", 0, "head-sampling rate for traces the server roots itself (0 = record all, 0<r<1 = that fraction, negative = none; caller traceparents and error responses always win)")
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := lf.logger()
	if err != nil {
		return err
	}
	slog.SetDefault(log)

	inject, err := resilience.FromFlagOrEnv(*injectSpec)
	if err != nil {
		return err
	}
	if inject != nil {
		log.Warn("fault injection ACTIVE", "spec", inject.String())
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			return fmt.Errorf("-checkpoint-dir: %w", err)
		}
	}
	var tenants []serve.TenantConfig
	if *apiKeys != "" {
		if tenants, err = serve.LoadTenants(*apiKeys); err != nil {
			return fmt.Errorf("-api-keys: %w", err)
		}
		log.Info("admission control ACTIVE", "tenants", len(tenants))
	}

	// The trace file outlives ListenAndServe so a SIGTERM'd server still
	// flushes its buffered JSONL before exiting.
	var traceSink *obs.FileSink
	if *traceFile != "" {
		var err error
		traceSink, err = obs.NewFileSink(*traceFile)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	bi := obs.ReadBuildInfo()
	log.Info("chop serve starting", "addr", *addr,
		"goVersion", bi.GoVersion, "revision", bi.Revision)
	s := serve.New(serve.Options{
		Addr:              *addr,
		MaxConcurrent:     *maxConcurrent,
		QueueDepth:        *queue,
		ShutdownGrace:     *grace,
		Log:               log,
		PredictCache:      *predictCache,
		DefaultJobTimeout: *jobTimeout,
		CheckpointDir:     *checkpointDir,
		Tenants:           tenants,
		Inject:            inject,
		TraceSink:         sinkOrNil(traceSink),
		TraceSampleRate:   *traceSample,
	})
	err = s.ListenAndServe(ctx)
	if traceSink != nil {
		if cerr := traceSink.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("-trace: %w", cerr)
		} else if cerr == nil {
			log.Info("server trace written", "file", *traceFile)
		}
	}
	return err
}

// version prints the binary's build identity — the same facts /metrics
// exposes as the chop_build_info gauge.
func version() error {
	bi := obs.ReadBuildInfo()
	dirty := ""
	if bi.Dirty {
		dirty = " (modified)"
	}
	fmt.Printf("chop %s\n  module:   %s\n  revision: %s%s\n", bi.GoVersion, bi.Module, bi.Revision, dirty)
	return nil
}
