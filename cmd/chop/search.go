package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chop/internal/bad"
	"chop/internal/core"
	"chop/internal/dist"
	"chop/internal/obs"
	"chop/internal/spec"
)

// searchCmd runs the design-space search for a spec, either in-process
// (like eval, but result-focused: -json emits the merged SearchResult) or
// distributed across a chop serve fleet with -distributed -workers-url.
// Both modes produce byte-identical results for the same spec, which is
// what the dist-smoke chaos gate diffs.
func searchCmd(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	file := fs.String("f", "", "partitioning spec file (JSON)")
	jsonOut := fs.Bool("json", false, "print the merged search result as indented JSON on stdout (summary moves to stderr)")
	distributed := fs.Bool("distributed", false, "farm the search out to a chop serve fleet (-workers-url)")
	workersURL := fs.String("workers-url", "", "comma-separated base URLs of the serve fleet, e.g. http://a:8080,http://b:8080")
	apiKey := fs.String("api-key", "", "tenant API key for admission-controlled workers")
	leaseTTL := fs.Duration("lease", 0, "lease liveness TTL: a worker silent this long loses its shards (0 = 10s)")
	maxLease := fs.Duration("max-lease", 0, "hard cap on one lease's lifetime regardless of renewals (0 = 6x -lease)")
	stealAfter := fs.Duration("steal-after", 0, "lease age past which idle workers steal its unfinished tail (0 = -lease)")
	shards := fs.Int("shards", 0, "requested shard count, enumeration heuristic only (0 = 4x fleet size)")
	maxLeaseShards := fs.Int("max-lease-shards", 0, "max shards granted per lease (0 = unlimited)")
	drainGrace := fs.Duration("drain-grace", 0, "keep consuming straggler results this long after the search completes, so late deliveries hit the epoch fence instead of vanishing")
	poll := fs.Duration("poll", 0, "worker status-poll cadence (0 = 100ms)")
	lf := addLogFlags(fs)
	of := addObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *file == "" {
		return fmt.Errorf("search: -f spec.json required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	prob, err := spec.Parse(data)
	if err != nil {
		return err
	}
	finish, err := of.attach(&prob.Config)
	if err != nil {
		return err
	}

	start := time.Now()
	var res core.SearchResult
	var preds []bad.Result
	if *distributed {
		err = func() error {
			fleet := splitURLs(*workersURL)
			if len(fleet) == 0 {
				return fmt.Errorf("search: -distributed requires -workers-url url[,url...]")
			}
			log, lerr := lf.logger()
			if lerr != nil {
				return lerr
			}
			// The coordinator always gets a registry so the fleet summary
			// below has counters to read, even without -metrics; attach's
			// registry is reused when present so -metrics/-prom see the
			// dist.* counters too.
			m := prob.Config.Metrics
			if m == nil {
				m = obs.NewMetrics()
			}
			o := dist.Options{
				Workers:        fleet,
				APIKey:         *apiKey,
				LeaseTTL:       *leaseTTL,
				MaxLease:       *maxLease,
				StealAfter:     *stealAfter,
				Shards:         *shards,
				MaxLeaseShards: *maxLeaseShards,
				DrainGrace:     *drainGrace,
				Poll:           *poll,
				CheckpointPath: prob.Config.CheckpointPath,
				Resume:         prob.Config.Resume,
				Metrics:        m,
				Trace:          prob.Config.Trace,
				Log:            log,
				Inject:         prob.Config.Inject,
			}
			c, err := dist.New(data, o)
			if err != nil {
				return err
			}
			ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
			defer stop()
			res, preds, err = c.Run(ctx)
			if err != nil {
				return err
			}
			plan := c.Plan()
			fmt.Fprintf(os.Stderr, "fleet: %d workers, %d shards, signature %.12s..\n",
				len(fleet), plan.Shards, plan.Signature)
			fmt.Fprintf(os.Stderr,
				"leases: granted=%d renewed=%d expired=%d stolen=%d; shards: reassigned=%d stolen=%d resumed=%d\n",
				m.Counter("dist.leases.granted"), m.Counter("dist.leases.renewed"),
				m.Counter("dist.leases.expired"), m.Counter("dist.leases.stolen"),
				m.Counter("dist.shards.reassigned"), m.Counter("dist.shards.stolen"),
				m.Counter("resilience.checkpoint_resumed_shards"))
			fmt.Fprintf(os.Stderr,
				"results: accepted=%d superseded=%d duplicate=%d missing=%d; workers: failed=%d quarantined=%d\n",
				m.Counter("dist.results.accepted"), m.Counter("dist.results.rejected.superseded"),
				m.Counter("dist.results.rejected.duplicate"), m.Counter("dist.results.missing"),
				m.Counter("dist.workers.failed"), m.Counter("dist.workers.quarantined"))
			return nil
		}()
	} else {
		res, preds, err = core.Run(prob.Partitioning, prob.Config, prob.Heuristic)
	}
	if ferr := finish(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	// With -json, stdout carries only the result document (the smoke gate
	// byte-compares it against a serial run), so the summary moves aside.
	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = os.Stderr
	}
	fmt.Fprintf(out, "partitions: %d on %d chips, heuristic %s, %s\n",
		prob.Partitioning.NumParts(), len(prob.Partitioning.Chips.Chips),
		prob.Heuristic, elapsed.Round(time.Millisecond))
	for i, r := range preds {
		fmt.Fprintf(out, "  partition %d: %d predictions, %d kept, %d feasible\n",
			i+1, r.Total, len(r.Designs), r.Feasible)
	}
	fmt.Fprintf(out, "trials: %d, feasible: %d, non-inferior: %d\n",
		res.Trials, res.FeasibleTrials, len(res.Best))
	for _, b := range res.Best {
		fmt.Fprintf(out, "  interval=%d cycles  delay=%d cycles  clock=%.0f ns  (perf %.0f ns, delay %.0f ns)\n",
			b.IIMain, b.DelayMain, b.Clock.ML, b.PerfNS.ML, b.DelayNS.ML)
	}
	if *jsonOut {
		blob, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
	}
	return nil
}

// splitURLs parses the comma-separated -workers-url value, dropping empty
// segments and trailing slashes so fleet URLs compare cleanly.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}
