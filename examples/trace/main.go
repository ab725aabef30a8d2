// Trace: run CHOP on the AR lattice filter with the observability layer
// enabled — a JSONL tracer capturing every pipeline stage and the search's
// trial tallies, plus a metrics registry — then replay the trace into the
// same explanation report that `chop explain` prints.
package main

import (
	"bytes"
	"fmt"
	"log"

	chop "chop"
)

func main() {
	g := chop.ARLatticeFilter(16)
	p := &chop.Partitioning{
		Graph:    g,
		Parts:    chop.LevelPartitions(g, 2),
		PartChip: []int{0, 1},
		Chips:    chop.NewChipSet(2, chop.MOSISPackages()[1], 4),
	}
	cfg := chop.Config{
		Lib:    chop.Table1Library(),
		Clocks: chop.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: chop.Constraints{
			Perf:  chop.Constraint{Bound: 30000, MinProb: 1},
			Delay: chop.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}

	// Attach the observability hooks. The tracer streams JSON Lines into
	// the buffer (use a file to keep the trace around — that is what
	// `chop eval -trace run.jsonl` does); the metrics registry aggregates
	// counters and latency histograms in memory.
	var traceBuf bytes.Buffer
	cfg.Trace = chop.NewTracer(chop.NewWriterSink(&traceBuf))
	cfg.Metrics = chop.NewMetrics()

	res, _, err := chop.Run(p, cfg, chop.Iterative)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("search: %d trials, %d feasible, %d non-inferior designs\n\n",
		res.Trials, res.FeasibleTrials, len(res.Best))

	// Replay the trace into the explanation report: per-stage time
	// breakdown, BAD predictions per partition, rejection reasons.
	rep, err := chop.ReplayTrace(&traceBuf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Format())

	// The metrics registry is independent of the trace: counters and
	// fixed-size histograms, folded from the same tallies.
	fmt.Println("\nmetrics:")
	fmt.Print(cfg.Metrics.Text())
}
