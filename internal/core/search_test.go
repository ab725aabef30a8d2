package core

import (
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/obs"
	"chop/internal/stats"
)

func TestRunBothHeuristicsAgreeOnBestII(t *testing.T) {
	// The two heuristics explore differently but the fastest feasible
	// interval they find should coincide on this small benchmark.
	for n := 1; n <= 3; n++ {
		for _, cfg := range []Config{exp1Config(), exp2Config()} {
			p := arPartitioning(t, n, 1)
			re, _, err := Run(p, cfg, Enumeration)
			if err != nil {
				t.Fatal(err)
			}
			ri, _, err := Run(p, cfg, Iterative)
			if err != nil {
				t.Fatal(err)
			}
			if len(re.Best) == 0 || len(ri.Best) == 0 {
				if len(re.Best) != len(ri.Best) {
					t.Fatalf("n=%d: one heuristic found designs, the other none", n)
				}
				continue
			}
			if re.Best[0].IIMain != ri.Best[0].IIMain {
				t.Errorf("n=%d: best II differs: E=%d I=%d",
					n, re.Best[0].IIMain, ri.Best[0].IIMain)
			}
		}
	}
}

func TestIterativeExaminesFarFewerTrials(t *testing.T) {
	// Paper Tables 4/6: the iterative heuristic examines an order of
	// magnitude fewer combinations (e.g. 9 vs 1050 for 3 partitions).
	p := arPartitioning(t, 3, 1)
	for _, cfg := range []Config{exp1Config(), exp2Config()} {
		re, _, err := Run(p, cfg, Enumeration)
		if err != nil {
			t.Fatal(err)
		}
		ri, _, err := Run(p, cfg, Iterative)
		if err != nil {
			t.Fatal(err)
		}
		if ri.Trials*2 >= re.Trials {
			t.Fatalf("iterative trials %d not far below enumeration %d", ri.Trials, re.Trials)
		}
	}
}

func TestMorePartitionsImproveOrHoldPerformance(t *testing.T) {
	// Paper Table 4/6 trend: 2 partitions substantially improve on 1; 3
	// partitions improve further or stall on the pin bottleneck, but never
	// regress.
	for _, cfg := range []Config{exp1Config(), exp2Config()} {
		var best []int
		for n := 1; n <= 3; n++ {
			res, _, err := Run(arPartitioning(t, n, 1), cfg, Enumeration)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Best) == 0 {
				t.Fatalf("n=%d infeasible", n)
			}
			best = append(best, res.Best[0].IIMain)
		}
		if best[1] >= best[0] {
			t.Fatalf("2 partitions (%d) did not beat 1 (%d)", best[1], best[0])
		}
		if best[2] > best[1] {
			t.Fatalf("3 partitions (%d) regressed vs 2 (%d)", best[2], best[1])
		}
		// And doubling the chips should roughly double performance.
		if best[0] < best[1]*3/2 {
			t.Fatalf("expected ~2x gain from 2 chips: %d -> %d", best[0], best[1])
		}
	}
}

func TestBestIsNonInferior(t *testing.T) {
	res, _, err := Run(arPartitioning(t, 2, 1), exp2Config(), Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range res.Best {
		for j, b := range res.Best {
			if i == j {
				continue
			}
			if b.IIMain <= a.IIMain && b.DelayMain <= a.DelayMain {
				t.Fatalf("design %d dominated by %d", i, j)
			}
		}
	}
	for i := 1; i < len(res.Best); i++ {
		if res.Best[i].IIMain <= res.Best[i-1].IIMain {
			t.Fatal("Best not sorted by II")
		}
		if res.Best[i].DelayMain >= res.Best[i-1].DelayMain {
			t.Fatal("non-inferior set must trade delay for II")
		}
	}
}

func TestKeepAllRecordsSpace(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	cfg.KeepAll = true
	res, _, err := Run(p, cfg, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Space) == 0 || len(res.Space) > res.Trials {
		t.Fatalf("space points %d vs trials %d", len(res.Space), res.Trials)
	}
	feasibleInSpace := 0
	for _, pt := range res.Space {
		if pt.AreaML <= 0 {
			t.Fatalf("space point without area: %+v", pt)
		}
		if pt.Feasible {
			feasibleInSpace++
		}
	}
	if feasibleInSpace != res.FeasibleTrials {
		t.Fatalf("space feasible %d != FeasibleTrials %d", feasibleInSpace, res.FeasibleTrials)
	}
}

func TestKeepAllExploresMoreTrials(t *testing.T) {
	// Figure 7's point: pruning slashes the number of integration trials.
	p := arPartitioning(t, 2, 1)
	pruned, _, err := Run(p, exp1Config(), Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp1Config()
	cfg.KeepAll = true
	all, _, err := Run(p, cfg, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if all.Trials <= pruned.Trials*3 {
		t.Fatalf("unpruned trials %d not far above pruned %d", all.Trials, pruned.Trials)
	}
}

func TestPrunedSearchMissesNoFasterDesign(t *testing.T) {
	// Pruning must not cost quality: the unpruned search cannot find a
	// strictly faster feasible interval than the pruned one.
	p := arPartitioning(t, 2, 1)
	pruned, _, err := Run(p, exp1Config(), Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	cfg := exp1Config()
	cfg.KeepAll = true
	all, _, err := Run(p, cfg, Enumeration)
	if err != nil {
		t.Fatal(err)
	}
	if len(pruned.Best) == 0 || len(all.Best) == 0 {
		t.Fatal("no feasible designs")
	}
	if all.Best[0].IIMain < pruned.Best[0].IIMain {
		t.Fatalf("pruning lost a faster design: %d vs %d",
			all.Best[0].IIMain, pruned.Best[0].IIMain)
	}
}

func TestSearchUnknownHeuristic(t *testing.T) {
	p := arPartitioning(t, 1, 1)
	preds, err := PredictPartitions(p, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(p, exp1Config(), preds, Heuristic(42)); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestSearchEmptyDesignList(t *testing.T) {
	// A partition with no viable prediction is level-1 feedback: the
	// search returns cleanly with nothing feasible.
	p := arPartitioning(t, 1, 1)
	empty := []bad.Result{{}}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		res, err := Search(p, exp1Config(), empty, h)
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if res.Trials != 0 || len(res.Best) != 0 {
			t.Fatalf("%v: expected an empty result, got %+v", h, res)
		}
	}
}

func TestSearchRejectsPredictionCountMismatch(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	preds, err := PredictPartitions(p, exp1Config())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []Heuristic{Enumeration, Iterative} {
		for _, wrong := range [][]bad.Result{preds[:1], append(preds, preds[0])} {
			if _, err := Search(p, exp1Config(), wrong, h); err == nil {
				t.Fatalf("%v: %d predictions for 2 partitions accepted", h, len(wrong))
			}
			if _, err := PlanShards(p, exp1Config(), wrong, h, 1); err == nil {
				t.Fatalf("%v: PlanShards accepted %d predictions for 2 partitions", h, len(wrong))
			}
			if _, err := SearchShards(p, exp1Config(), wrong, h, 1, []int{0}); err == nil {
				t.Fatalf("%v: SearchShards accepted %d predictions for 2 partitions", h, len(wrong))
			}
		}
	}
}

func TestHeuristicString(t *testing.T) {
	if Enumeration.String() != "E" || Iterative.String() != "I" {
		t.Fatal("heuristic labels must match the paper's table notation")
	}
	// Out-of-range values must stringify distinctly, not collapse onto one
	// of the real heuristics or each other.
	if got := Heuristic(42).String(); got != "Heuristic(42)" {
		t.Fatalf("Heuristic(42).String() = %q", got)
	}
	if Heuristic(7).String() == Heuristic(8).String() {
		t.Fatal("distinct unknown heuristics must have distinct strings")
	}
}

func TestMaxCombinationsGuard(t *testing.T) {
	p := arPartitioning(t, 2, 1)
	cfg := exp1Config()
	preds, err := PredictPartitions(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 1
	for _, r := range preds {
		if len(r.Designs) == 0 {
			t.Fatal("need non-empty prediction lists")
		}
		total *= len(r.Designs)
	}
	if total < 2 {
		t.Fatalf("space too small to test the guard: %d", total)
	}
	// A cap below the space must abort the enumeration with a message
	// naming the cap, the partial combination count, and the remedy.
	cfg.MaxCombinations = total - 1
	_, err = Search(p, cfg, preds, Enumeration)
	if err == nil {
		t.Fatalf("cap %d below space %d accepted", total-1, total)
	}
	for _, want := range []string{"exceeds", "Config.MaxCombinations", "combinations"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("guard error %q misses %q", err, want)
		}
	}
	// A cap equal to the space must let the search through, and the
	// iterative heuristic must ignore the cap entirely.
	cfg.MaxCombinations = total
	if _, err := Search(p, cfg, preds, Enumeration); err != nil {
		t.Fatalf("cap == space rejected: %v", err)
	}
	cfg.MaxCombinations = 1
	if _, err := Search(p, cfg, preds, Iterative); err != nil {
		t.Fatalf("iterative heuristic hit the enumeration cap: %v", err)
	}
}

func TestRecordKeepAllSpacePoints(t *testing.T) {
	cfg := Config{KeepAll: true}
	var res SearchResult
	area := []stats.Triplet{{Lo: 8, ML: 10, Hi: 12}}
	feasible := GlobalDesign{
		Feasible: true, IIMain: 4, DelayMain: 9,
		ChipArea: area, DelayNS: stats.Triplet{ML: 2700},
	}
	infeasible := GlobalDesign{
		Feasible: false, IIMain: 3, DelayMain: 7,
		ChipArea: area, DelayNS: stats.Triplet{ML: 2100},
	}
	// Early-rejected combination (rate mismatch / data clash): integration
	// never predicted areas, so it contributes no space point.
	early := GlobalDesign{Feasible: false, ReasonCode: ReasonRateMismatch}
	record(&res, cfg.KeepAll, &feasible)
	record(&res, cfg.KeepAll, &infeasible)
	record(&res, cfg.KeepAll, &early)
	if res.FeasibleTrials != 1 || len(res.Best) != 1 {
		t.Fatalf("feasible bookkeeping: %d trials, %d best", res.FeasibleTrials, len(res.Best))
	}
	if len(res.Space) != 2 {
		t.Fatalf("space points = %d, want 2 (early reject must not record)", len(res.Space))
	}
	if !res.Space[0].Feasible || res.Space[1].Feasible {
		t.Fatalf("space feasibility flags wrong: %+v", res.Space)
	}
	if res.Space[0].AreaML != 10 || res.Space[0].IIMain != 4 || res.Space[0].DelayNS != 2700 {
		t.Fatalf("space point fields wrong: %+v", res.Space[0])
	}
}

func TestTallyPointCountsPruned(t *testing.T) {
	// With pruning active (no KeepAll) and tracing on, the recorder's
	// tally point must count each discarded trial as pruned.
	pruned := func(cfg Config, designs ...GlobalDesign) any {
		var tallies []obs.Event
		sp := obs.New(obs.PushSink(func(ev obs.Event) {
			if ev.Kind == obs.KindPoint && ev.Name == "tally" {
				tallies = append(tallies, ev)
			}
		})).Span("Search")
		rec := newRecorder(cfg, sp)
		for i := range designs {
			rec.begin(1)
			rec.end(&designs[i], nil)
		}
		rec.flush()
		sp.End()
		if len(tallies) != 1 {
			t.Fatalf("%d tally points, want 1", len(tallies))
		}
		return tallies[0].Fields["pruned"]
	}
	if got := pruned(Config{},
		GlobalDesign{Feasible: false, ReasonCode: ReasonArea, ReasonChip: -1},
		GlobalDesign{Feasible: true, ReasonChip: -1}); got != int64(1) {
		t.Fatalf("pruned = %v, want 1", got)
	}
	// KeepAll retains everything, so nothing is pruned (or reported as such).
	if got := pruned(Config{KeepAll: true}, GlobalDesign{Feasible: false, ReasonChip: -1}); got != int64(0) {
		t.Fatalf("KeepAll pruned = %v, want 0", got)
	}
}

func TestFinishSearchNonInferior(t *testing.T) {
	gd := func(ii, delay int) GlobalDesign {
		return GlobalDesign{Feasible: true, IIMain: ii, DelayMain: delay}
	}
	res := SearchResult{Best: []GlobalDesign{
		gd(4, 10),
		gd(4, 10), // exact tie: dominated by its twin, only one survives
		gd(4, 12), // dominated at equal II
		gd(5, 8),
		gd(6, 8), // delay tie at higher II: dominated
		gd(3, 20),
	}}
	finishSearch(&res)
	want := [][2]int{{3, 20}, {4, 10}, {5, 8}}
	if len(res.Best) != len(want) {
		t.Fatalf("kept %d designs, want %d: %+v", len(res.Best), len(want), res.Best)
	}
	for i, w := range want {
		if res.Best[i].IIMain != w[0] || res.Best[i].DelayMain != w[1] {
			t.Fatalf("kept[%d] = (%d,%d), want (%d,%d)",
				i, res.Best[i].IIMain, res.Best[i].DelayMain, w[0], w[1])
		}
	}
}

func TestNextValid(t *testing.T) {
	list := []bad.Design{
		{Style: bad.Pipelined, II: 2},    // 20 main
		{Style: bad.NonPipelined, II: 3}, // 30 main
		{Style: bad.Pipelined, II: 4},    // 40 main
		{Style: bad.NonPipelined, II: 6}, // 60 main
	}
	cfg := exp1Config()
	if got := nextValid(list, -1, 40, cfg.Clocks); got != 1 {
		t.Fatalf("first valid at l=40: %d (non-pipelined 30 expected)", got)
	}
	if got := nextValid(list, 1, 40, cfg.Clocks); got != 2 {
		t.Fatalf("next valid at l=40: %d (pipelined 40 expected)", got)
	}
	if got := nextValid(list, 2, 40, cfg.Clocks); got != -1 {
		t.Fatalf("exhausted list: %d", got)
	}
	if got := nextValid(list, -1, 20, cfg.Clocks); got != 0 {
		t.Fatalf("pipelined match at l=20: %d", got)
	}
}

func TestPartitionsOnChips(t *testing.T) {
	p := arPartitioning(t, 3, 1)
	p.PartChip = []int{0, 1, 0}
	if got := partitionsOnChips(nil, p, []int{0}); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("partitionsOnChips = %v", got)
	}
	if got := partitionsOnChips(nil, p, nil); got != nil {
		t.Fatalf("no chips should give no partitions: %v", got)
	}
	if got := partitionsOnChips([]int{9}, p, []int{1}); len(got) != 2 || got[0] != 9 || got[1] != 1 {
		t.Fatalf("partitionsOnChips must append to dst: %v", got)
	}
}

func TestScaleMatMul(t *testing.T) {
	// Scale behavior of cut-hostile graphs: an n x n matrix-vector multiply
	// has n^2 values crossing the mul/add boundary, so growing n drives the
	// partitioning into the paper's pin/transfer-buffer bottleneck. The
	// small instance must partition; the large one must be *cleanly*
	// rejected (no crash, no bogus feasibility).
	if testing.Short() {
		t.Skip("scale test")
	}
	cfg := exp2Config()
	cfg.Constraints.Perf.Bound = 60000
	cfg.Constraints.Delay.Bound = 120000
	run := func(n, chipsN int) (SearchResult, int) {
		g := dfg.MatMul(n, 16)
		p := &Partitioning{
			Graph:    g,
			Parts:    dfg.LevelPartitions(g, chipsN),
			PartChip: seqInts(chipsN),
			Chips:    chip.NewUniformSet(chipsN, chip.MOSISPackages()[1], 4),
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		res, preds, err := Run(p, cfg, Iterative)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, r := range preds {
			total += r.Total
		}
		return res, total
	}
	small, totalSmall := run(4, 2)
	if totalSmall == 0 || len(small.Best) == 0 {
		t.Fatalf("matmul-4 should partition onto 2 chips (preds %d)", totalSmall)
	}
	big, totalBig := run(8, 4)
	if totalBig == 0 {
		t.Fatal("no predictions at scale")
	}
	if len(big.Best) != 0 {
		t.Logf("matmul-8 unexpectedly feasible: II=%d", big.Best[0].IIMain)
	}
}

func seqInts(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
