// Benchmarks regenerating every table and figure of the paper's evaluation
// (section 3), plus ablation benches for the design choices DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// Each table/figure bench reports the paper-comparable quantities as
// b.ReportMetric custom metrics so the bench output doubles as the
// reproduction record (see EXPERIMENTS.md).
package chop_test

import (
	"fmt"
	"testing"

	chop "chop"
	"chop/internal/experiments"
)

// benchCounts runs the Table 3/5 prediction-statistics workload.
func benchCounts(b *testing.B, expN int) {
	e := experiments.New(expN)
	var rows []experiments.CountsRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = e.PredictionCounts()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, r := range rows {
		suffix := "p" + string(rune('0'+r.Partitions))
		b.ReportMetric(float64(r.Total), "predictions_"+suffix)
		b.ReportMetric(float64(r.Feasible), "feasible_"+suffix)
	}
}

// BenchmarkTable3 regenerates paper Table 3: BAD prediction statistics for
// experiment 1 (single-cycle style) over 1/2/3 partitions.
func BenchmarkTable3(b *testing.B) { benchCounts(b, 1) }

// BenchmarkTable5 regenerates paper Table 5: the same statistics for
// experiment 2 (multi-cycle style).
func BenchmarkTable5(b *testing.B) { benchCounts(b, 2) }

// benchResults runs the Table 4/6 workload: both heuristics over the
// partition/package schedule.
func benchResults(b *testing.B, expN int) {
	e := experiments.New(expN)
	var rows []experiments.ResultRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = e.Results()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	bestII, trialsE, trialsI := 1<<30, 0, 0
	for _, r := range rows {
		if r.Heuristic == "E" {
			trialsE += r.Trials
		} else {
			trialsI += r.Trials
		}
		for _, p := range r.Points {
			if p.II < bestII {
				bestII = p.II
			}
		}
	}
	b.ReportMetric(float64(bestII), "best_interval_cycles")
	b.ReportMetric(float64(trialsE), "trials_enumeration")
	b.ReportMetric(float64(trialsI), "trials_iterative")
}

// BenchmarkTable4 regenerates paper Table 4: experiment-1 partitioning
// results (heuristic, trials, feasible trials, interval, delay, clock).
func BenchmarkTable4(b *testing.B) { benchResults(b, 1) }

// BenchmarkTable6 regenerates paper Table 6: the experiment-2 results.
func BenchmarkTable6(b *testing.B) { benchResults(b, 2) }

// BenchmarkFigure7 regenerates paper Figure 7: the unpruned design space of
// experiment 1 over all three partitionings, reporting the explored point
// count and the pruned-vs-full trial counts whose ratio is the figure's
// headline.
func BenchmarkFigure7(b *testing.B) {
	e := experiments.New(1)
	var fig experiments.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err = e.Explore(1, 2, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(fig.Points)), "space_points")
	b.ReportMetric(float64(fig.Predictions), "predictions")
	b.ReportMetric(float64(fig.UniquePredictions), "unique_predictions")
	b.ReportMetric(float64(fig.FullTrials), "full_trials")
	b.ReportMetric(float64(fig.PrunedTrials), "pruned_trials")
}

// BenchmarkFigure8 regenerates paper Figure 8: the unpruned design space of
// experiment 2 restricted to the single-partition implementation (the paper
// ran out of swap beyond that).
func BenchmarkFigure8(b *testing.B) {
	e := experiments.New(2)
	var fig experiments.Figure
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err = e.Explore(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(fig.Points)), "space_points")
	b.ReportMetric(float64(fig.Predictions), "predictions")
	b.ReportMetric(float64(fig.UniquePredictions), "unique_predictions")
}

// ---- ablations --------------------------------------------------------

func exp1Config() chop.Config { return experiments.New(1).Cfg }

func arSetup(n int) *chop.Partitioning {
	return experiments.New(1).Partitioning(n, 2)
}

// BenchmarkSearch isolates the search stage over precomputed per-partition
// predictions, for both heuristics. This is the hot loop the observability
// hooks instrument; run it with Config.Trace == nil to measure the
// disabled-tracing overhead (the acceptance bar is <2% versus the
// un-instrumented baseline).
func BenchmarkSearch(b *testing.B) {
	p := arSetup(3)
	cfg := exp1Config()
	preds, err := chop.PredictPartitions(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []chop.Heuristic{chop.Enumeration, chop.Iterative} {
		b.Run(h.String(), func(b *testing.B) {
			var trials int
			for i := 0; i < b.N; i++ {
				res, err := chop.Search(p, cfg, preds, h)
				if err != nil {
					b.Fatal(err)
				}
				trials = res.Trials
			}
			b.ReportMetric(float64(trials), "trials")
		})
	}
}

// BenchmarkSearchParallel measures the sharded worker-pool search engine
// against the serial loop on the synthetic stress graph: one KeepAll
// prediction truncated to 20 designs per partition (a fixed 8000-combination
// enumeration), searched at 1, 2 and 4 workers. Results are byte-identical
// at every worker count; on a multi-core host the w4/w1 ns/op ratio is the
// engine's speedup (single-core machines show ~1x by construction).
func BenchmarkSearchParallel(b *testing.B) {
	g := chop.StressDFG(6, 20, 16)
	const parts = 3
	p := &chop.Partitioning{
		Graph:    g,
		Parts:    chop.LevelPartitions(g, parts),
		PartChip: []int{0, 1, 2},
		Chips:    chop.NewChipSet(parts, chop.MOSISPackages()[1], 4),
	}
	cfg := chop.Config{
		Lib:    chop.ExtendedLibrary(),
		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: chop.Constraints{
			Perf:  chop.Constraint{Bound: 300000, MinProb: 1},
			Delay: chop.Constraint{Bound: 300000, MinProb: 0.8},
		},
		KeepAll: true,
	}
	preds, err := chop.PredictPartitions(p, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := range preds {
		if len(preds[i].Designs) > 20 {
			preds[i].Designs = preds[i].Designs[:20]
		}
	}
	cfg.KeepAll = false
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			wcfg := cfg
			wcfg.Workers = workers
			var trials int
			for i := 0; i < b.N; i++ {
				res, err := chop.Search(p, wcfg, preds, chop.Enumeration)
				if err != nil {
					b.Fatal(err)
				}
				trials = res.Trials
			}
			b.ReportMetric(float64(trials), "trials")
		})
	}
}

// BenchmarkAblationHeuristic compares the two heuristics head to head on
// the 3-partition setup (paper Table 4 rows 9-10: 1050 vs 9 trials).
func BenchmarkAblationHeuristic(b *testing.B) {
	for _, h := range []chop.Heuristic{chop.Enumeration, chop.Iterative} {
		b.Run(h.String(), func(b *testing.B) {
			var trials int
			for i := 0; i < b.N; i++ {
				res, _, err := chop.Run(arSetup(3), exp1Config(), h)
				if err != nil {
					b.Fatal(err)
				}
				trials = res.Trials
			}
			b.ReportMetric(float64(trials), "trials")
		})
	}
}

// BenchmarkAblationPruning measures the cost of keeping the whole design
// space (the paper's 61.4 s unpruned vs sub-second pruned contrast).
func BenchmarkAblationPruning(b *testing.B) {
	for _, keepAll := range []bool{false, true} {
		name := "pruned"
		if keepAll {
			name = "keepall"
		}
		b.Run(name, func(b *testing.B) {
			cfg := exp1Config()
			cfg.KeepAll = keepAll
			for i := 0; i < b.N; i++ {
				if _, _, err := chop.Run(arSetup(2), cfg, chop.Enumeration); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTestability measures the scan-design extension's cost
// (area/clock overhead knob from the paper's future-work list).
func BenchmarkAblationTestability(b *testing.B) {
	for _, scan := range []bool{false, true} {
		name := "off"
		if scan {
			name = "scan"
		}
		b.Run(name, func(b *testing.B) {
			cfg := exp1Config()
			cfg.Style.Testability = scan
			var best int
			for i := 0; i < b.N; i++ {
				res, _, err := chop.Run(arSetup(2), cfg, chop.Iterative)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Best) > 0 {
					best = res.Best[0].IIMain
				} else {
					best = -1
				}
			}
			b.ReportMetric(float64(best), "best_interval_cycles")
		})
	}
}

// BenchmarkAblationBusWidth sweeps the transfer-module bus cap, the knob
// behind the pad-area / transfer-time trade (DESIGN.md substitution note).
func BenchmarkAblationBusWidth(b *testing.B) {
	for _, pins := range []int{16, 32, 64} {
		b.Run(string(rune('0'+pins/10))+string(rune('0'+pins%10))+"pins", func(b *testing.B) {
			cfg := exp1Config()
			cfg.MaxBusPins = pins
			var delay int
			for i := 0; i < b.N; i++ {
				res, _, err := chop.Run(arSetup(2), cfg, chop.Iterative)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Best) > 0 {
					delay = res.Best[0].DelayMain
				}
			}
			b.ReportMetric(float64(delay), "best_delay_cycles")
		})
	}
}

// BenchmarkKLBaseline measures the Kernighan-Lin baseline bisection on the
// AR filter (related-work comparator).
func BenchmarkKLBaseline(b *testing.B) {
	g := chop.ARLatticeFilter(16)
	var cut int
	for i := 0; i < b.N; i++ {
		cut = chop.KLCutBits(g, chop.KLBisect(g, 10))
	}
	b.ReportMetric(float64(cut), "cut_bits")
}

// BenchmarkBADPredict measures a single BAD prediction pass (experiment-2
// settings, the heavier style).
func BenchmarkBADPredict(b *testing.B) {
	g := chop.ARLatticeFilter(16)
	e := experiments.New(2)
	cfg := chop.PredictConfig{
		Lib:     e.Cfg.Lib,
		Style:   e.Cfg.Style,
		Clocks:  e.Cfg.Clocks,
		MaxArea: chop.MOSISPackages()[1].ProjectArea(),
		Perf:    e.Cfg.Constraints.Perf,
		Delay:   e.Cfg.Constraints.Delay,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chop.Predict(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesisAndVerify measures the full back-end: bind the fastest
// non-pipelined AR-filter design to RTL and verify it against the golden
// model, reporting the prediction-accuracy ratios (the paper's "very
// accurate" claim as numbers).
func BenchmarkSynthesisAndVerify(b *testing.B) {
	g := chop.ARLatticeFilter(16)
	e := experiments.New(2)
	cfg := chop.PredictConfig{
		Lib:     e.Cfg.Lib,
		Style:   e.Cfg.Style,
		Clocks:  e.Cfg.Clocks,
		MaxArea: chop.MOSISPackages()[1].ProjectArea(),
		Perf:    e.Cfg.Constraints.Perf,
		Delay:   e.Cfg.Constraints.Delay,
	}
	res, err := chop.Predict(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var d chop.Design
	found := false
	for _, cand := range res.Designs {
		if cand.Style == chop.NonPipelined {
			d, found = cand, true
			break
		}
	}
	if !found {
		b.Skip("no non-pipelined design")
	}
	cyc := chop.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
	vec := []map[string]int64{{"x1": 3, "x2": -5, "x3": 7, "x4": 11}}
	var regRatio, muxRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nl, err := chop.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			b.Fatal(err)
		}
		if err := chop.VerifyNetlist(g, nl, vec, nil); err != nil {
			b.Fatal(err)
		}
		regRatio = float64(nl.RegisterBits()) / float64(d.RegBits)
		muxRatio = float64(nl.Mux1Bit()) / float64(d.Mux1Bit)
	}
	b.StopTimer()
	b.ReportMetric(regRatio, "regbits_bound_over_predicted")
	b.ReportMetric(muxRatio, "mux_bound_over_predicted")
}

// BenchmarkAblationImprove measures the automatic op-migration improvement
// loop against the starting partitioning.
func BenchmarkAblationImprove(b *testing.B) {
	var before, after int
	for i := 0; i < b.N; i++ {
		p := experiments.New(2).Partitioning(3, 2)
		cfg := experiments.New(2).Cfg
		res, _, err := chop.Run(p, cfg, chop.Iterative)
		if err != nil {
			b.Fatal(err)
		}
		before = bestII(res)
		_, improved, err := chop.Improve(p, cfg, chop.Iterative, 2)
		if err != nil {
			b.Fatal(err)
		}
		after = bestII(improved)
	}
	b.ReportMetric(float64(before), "interval_before")
	b.ReportMetric(float64(after), "interval_after")
}

func bestII(r chop.SearchResult) int {
	if len(r.Best) == 0 {
		return -1
	}
	return r.Best[0].IIMain
}

// BenchmarkCosim measures the full multi-chip verification loop: CHOP
// search, per-partition RTL synthesis, streamed co-simulation of 4 samples.
func BenchmarkCosim(b *testing.B) {
	e := experiments.New(2)
	cfg := e.Cfg
	cfg.Style.NoPipelined = false
	streams := make([]map[string]int64, 4)
	for k := range streams {
		streams[k] = map[string]int64{
			"x1": int64(k + 1), "x2": int64(k * 3), "x3": int64(-k), "x4": 7,
		}
	}
	for i := 0; i < b.N; i++ {
		p := e.Partitioning(2, 2)
		res, _, err := chop.Run(p, cfg, chop.Iterative)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Best) == 0 {
			b.Fatal("no feasible design")
		}
		if err := chop.CosimVerify(p, cfg, res.Best[0].Choice, streams, nil); err != nil {
			b.Fatal(err)
		}
	}
}
