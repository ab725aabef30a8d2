package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chop/internal/loadgen"
	"chop/internal/spec"
)

// loadgenCmd drives the SLO harness (internal/loadgen) against a live
// serve instance, or gates loadgen reports against each other:
//
//	chop loadgen -addr http://127.0.0.1:8080 -rps 20 -duration 10   # measure, write loadgen.json
//	chop loadgen -compare baseline.json                              # measure, then gate vs baseline
//	chop loadgen -compare old.json new.json                          # offline: gate one report vs another
//
// The gates are the serve plane's SLOs: p99 submit and time-to-first-byte
// latency growth against -tolerance, and the run's own goroutine/FD growth
// against -leak-tolerance (a leak budget, not a baseline delta). Any fired
// gate exits non-zero, which is what CI and `make loadgen-smoke` hook into.
func loadgenCmd(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serve base URL")
	apiKey := fs.String("api-key", "", "tenant API key for an admission-controlled server (also $CHOP_API_KEY)")
	kind := fs.String("kind", "eval", "run kind to submit")
	file := fs.String("f", "", "submission spec file (JSON); default: the built-in example spec for eval/synth kinds")
	rps := fs.Float64("rps", 5, "target submit rate, requests per second (open loop)")
	duration := fs.Float64("duration", 5, "measured window in seconds")
	inflight := fs.Int("inflight", 64, "max concurrently outstanding runs; saturated schedule ticks are skipped")
	cancelFrac := fs.Float64("cancel", 0.1, "fraction of accepted runs cancelled right after submit")
	streamFrac := fs.Float64("stream", 0.25, "fraction of accepted runs whose SSE trace stream is consumed")
	subs := fs.Int("subs", 2, "SSE subscribers per streamed run (fan-out width)")
	timeoutSec := fs.Float64("timeout", 0, "per-run timeoutSec forwarded in each submission (0: server default)")
	poll := fs.Float64("poll", 0.1, "initial Await polling delay in seconds (backs off with jitter)")
	seed := fs.Int64("seed", 1, "seed of the deterministic cancel/stream mix")
	jsonOut := fs.String("json", "loadgen.json", "write the report to this path ('' disables)")
	compareOld := fs.String("compare", "", "baseline loadgen json: gate this run against it, or with a positional new.json compare offline")
	tolerance := fs.Float64("tolerance", 25, "p99 latency regression tolerance in percent for -compare (0 disables)")
	leakTolerance := fs.Int("leak-tolerance", 10, "allowed within-run goroutine growth (and x4 FDs) before the leak gate fires (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tol := loadgen.Tolerances{
		LatencyPct:      *tolerance,
		GoroutineGrowth: *leakTolerance,
		FDGrowth:        4 * *leakTolerance,
	}
	// Offline mode: two existing reports, no traffic.
	if *compareOld != "" && fs.NArg() > 0 {
		rest := fs.Args()
		newPath := rest[0]
		// Allow flags after the positional file: re-parse the remainder.
		if err := fs.Parse(rest[1:]); err != nil {
			return err
		}
		tol.LatencyPct = *tolerance
		tol.GoroutineGrowth = *leakTolerance
		tol.FDGrowth = 4 * *leakTolerance
		cur, err := loadgen.Load(newPath)
		if err != nil {
			return err
		}
		return loadgenGate(*compareOld, cur, tol)
	}

	key := *apiKey
	if key == "" {
		key = os.Getenv("CHOP_API_KEY")
	}
	var rawSpec json.RawMessage
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		rawSpec = data
	case *kind == "eval" || *kind == "synth":
		data, err := json.Marshal(spec.Example())
		if err != nil {
			return err
		}
		rawSpec = data
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "loadgen: driving %s kind=%s at %.1f rps for %.0fs\n",
		*addr, *kind, *rps, *duration)
	rep, err := loadgen.Run(ctx, loadgen.Options{
		Base:           *addr,
		APIKey:         key,
		Kind:           *kind,
		Spec:           rawSpec,
		RPS:            *rps,
		Duration:       time.Duration(*duration * float64(time.Second)),
		MaxInFlight:    *inflight,
		CancelFraction: *cancelFrac,
		StreamFraction: *streamFrac,
		Subscribers:    *subs,
		TimeoutSec:     *timeoutSec,
		Poll:           time.Duration(*poll * float64(time.Second)),
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	fmt.Print(loadgen.FormatReport(rep))
	if *jsonOut != "" {
		if err := rep.Save(*jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "report written to %s (gate with: chop loadgen -compare %s)\n",
			*jsonOut, *jsonOut)
	}
	if *compareOld != "" {
		return loadgenGate(*compareOld, rep, tol)
	}
	return nil
}

// loadgenGate compares a report against the baseline at oldPath and turns
// any fired gate into a non-zero exit.
func loadgenGate(oldPath string, cur *loadgen.Report, tol loadgen.Tolerances) error {
	old, err := loadgen.Load(oldPath)
	if err != nil {
		return err
	}
	findings, regressed := loadgen.Compare(old, cur, tol)
	if len(findings) == 0 {
		return fmt.Errorf("loadgen: no comparable gates between baseline and current report (latency samples missing?)")
	}
	fmt.Print(loadgen.FormatFindings(findings))
	if regressed {
		return fmt.Errorf("loadgen: SLO regression beyond tolerance (latency %.0f%%, goroutine leak budget %d)",
			tol.LatencyPct, tol.GoroutineGrowth)
	}
	fmt.Printf("no SLO regression across %d gates\n", len(findings))
	return nil
}
