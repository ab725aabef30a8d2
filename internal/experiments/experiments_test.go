package experiments

import (
	"reflect"
	"strings"
	"testing"

	"chop/internal/core"
	"chop/internal/obs"
)

func TestNewValidates(t *testing.T) {
	e1, e2 := New(1), New(2)
	if e1.Cfg.Style.MultiCycle || !e2.Cfg.Style.MultiCycle {
		t.Fatal("styles swapped")
	}
	if e1.Cfg.Clocks.DatapathMult != 10 || e2.Cfg.Clocks.DatapathMult != 1 {
		t.Fatal("clock setup wrong")
	}
	if e1.Cfg.Constraints.Perf.Bound != 30000 || e2.Cfg.Constraints.Perf.Bound != 20000 {
		t.Fatal("constraints wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New(3) must panic")
		}
	}()
	New(3)
}

func TestPartitioningValid(t *testing.T) {
	e := New(1)
	for n := 1; n <= 3; n++ {
		for pkg := 1; pkg <= 2; pkg++ {
			if err := e.Partitioning(n, pkg).Validate(); err != nil {
				t.Fatalf("n=%d pkg=%d: %v", n, pkg, err)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown package must panic")
		}
	}()
	e.Partitioning(1, 3)
}

func TestPredictionCountsShapes(t *testing.T) {
	// Table 3 and 5 shape: counts grow with partitions, experiment 2 space
	// much larger, feasible counts a small fraction.
	r1, err := New(1).PredictionCounts()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(2).PredictionCounts()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != 3 || len(r2) != 3 {
		t.Fatalf("row counts: %d, %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Partitions != i+1 {
			t.Fatalf("row %d partitions = %d", i, r1[i].Partitions)
		}
		if r1[i].Feasible == 0 || r2[i].Feasible == 0 {
			t.Fatalf("no feasible predictions in row %d", i)
		}
		if r2[i].Total <= r1[i].Total {
			t.Fatalf("experiment 2 space not larger: %d vs %d", r2[i].Total, r1[i].Total)
		}
	}
	if r1[2].Total < r1[0].Total {
		t.Fatalf("3-partition predictions below 1-partition: %+v", r1)
	}
}

func TestResultsShapes(t *testing.T) {
	for _, expN := range []int{1, 2} {
		rows, err := New(expN).Results()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 8 { // 4 configs x 2 heuristics
			t.Fatalf("exp %d: %d rows", expN, len(rows))
		}
		byKey := map[string]ResultRow{}
		for _, r := range rows {
			if r.Trials <= 0 {
				t.Fatalf("exp %d: row without trials: %+v", expN, r)
			}
			byKey[key(r)] = r
		}
		// Iterative must use far fewer trials than enumeration at 3 parts.
		e3, i3 := byKey["3/2/E"], byKey["3/2/I"]
		if i3.Trials*2 >= e3.Trials {
			t.Fatalf("exp %d: iterative trials %d vs enumeration %d", expN, i3.Trials, e3.Trials)
		}
		// Both heuristics find the same fastest interval per config.
		for _, cfg := range []string{"1/2", "2/2", "2/1", "3/2"} {
			e, i := byKey[cfg+"/E"], byKey[cfg+"/I"]
			if len(e.Points) == 0 || len(i.Points) == 0 {
				t.Fatalf("exp %d cfg %s: missing feasible points", expN, cfg)
			}
			if e.Points[0].II != i.Points[0].II {
				t.Fatalf("exp %d cfg %s: E found II=%d, I found II=%d",
					expN, cfg, e.Points[0].II, i.Points[0].II)
			}
		}
		// More partitions must improve the best interval vs 1 partition.
		if byKey["2/2/E"].Points[0].II >= byKey["1/2/E"].Points[0].II {
			t.Fatalf("exp %d: no improvement from partitioning", expN)
		}
		// Adjusted clocks stay near the 300 ns main clock (paper: 308-400).
		for _, r := range rows {
			for _, pt := range r.Points {
				if pt.ClockNS < 305 || pt.ClockNS > 410 {
					t.Fatalf("exp %d: clock %v out of band", expN, pt.ClockNS)
				}
			}
		}
	}
}

// TestResultsMemoScopedToCall: Results predicts through a memo that lives
// for one call, so its 16 predictions cost 6 sweeps. Two calls on one
// Experiment make the same number of memo misses, which a memo outliving
// the first call would not, and the rows equal an unmemoized run in every
// field but CPU.
func TestResultsMemoScopedToCall(t *testing.T) {
	for _, expN := range []int{1, 2} {
		e := New(expN)
		m := obs.NewMetrics()
		e.Cfg.Metrics = m
		var calls [2][]ResultRow
		var misses, hits [2]int64
		for c := range calls {
			missBefore, hitBefore := m.Counter("bad.predict_cache_miss"), m.Counter("bad.predict_cache_hit")
			rows, err := e.Results()
			if err != nil {
				t.Fatal(err)
			}
			calls[c] = rows
			misses[c] = m.Counter("bad.predict_cache_miss") - missBefore
			hits[c] = m.Counter("bad.predict_cache_hit") - hitBefore
		}
		if misses != [2]int64{6, 6} || hits != [2]int64{10, 10} {
			t.Fatalf("exp %d: memo misses %v hits %v per call, want 6 and 10 each", expN, misses, hits)
		}
		plain := New(expN)
		var want []ResultRow
		for _, rc := range resultConfigs {
			for _, h := range []core.Heuristic{core.Enumeration, core.Iterative} {
				res, _, err := core.Run(plain.Partitioning(rc.n, rc.pkg), plain.Cfg, h)
				if err != nil {
					t.Fatal(err)
				}
				row := ResultRow{Partitions: rc.n, Package: rc.pkg, Heuristic: h.String(),
					Trials: res.Trials, FeasibleTrials: res.FeasibleTrials}
				for _, b := range res.Best {
					row.Points = append(row.Points, DesignPoint{II: b.IIMain, Delay: b.DelayMain, ClockNS: b.Clock.ML})
				}
				want = append(want, row)
			}
		}
		for c, rows := range calls {
			for i := range rows {
				rows[i].CPU = 0
			}
			if !reflect.DeepEqual(rows, want) {
				t.Fatalf("exp %d call %d: memoized rows differ from an unmemoized run:\n%+v\n%+v", expN, c, rows, want)
			}
		}
	}
}

func key(r ResultRow) string {
	return strings.Join([]string{
		string(rune('0' + r.Partitions)), string(rune('0' + r.Package)), r.Heuristic,
	}, "/")
}

func TestExperiment2FasterThanExperiment1(t *testing.T) {
	// Paper: the multi-cycle style finds higher-performance designs.
	r1, err := New(1).Results()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(2).Results()
	if err != nil {
		t.Fatal(err)
	}
	best := func(rows []ResultRow) int {
		b := 1 << 30
		for _, r := range rows {
			for _, p := range r.Points {
				if p.II < b {
					b = p.II
				}
			}
		}
		return b
	}
	if best(r2) >= best(r1) {
		t.Fatalf("multi-cycle best II %d not faster than single-cycle %d", best(r2), best(r1))
	}
}

func TestExploreFigure7(t *testing.T) {
	fig, err := New(1).Explore(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) == 0 {
		t.Fatal("no space points")
	}
	if fig.Predictions <= fig.UniquePredictions {
		t.Fatalf("re-encounters expected: total %d unique %d", fig.Predictions, fig.UniquePredictions)
	}
	// The headline of Figure 7: pruning slashes the trial count.
	if fig.PrunedTrials*3 >= fig.FullTrials {
		t.Fatalf("pruning ineffective: %d vs %d trials", fig.PrunedTrials, fig.FullTrials)
	}
	for _, pt := range fig.Points {
		if pt.AreaML <= 0 || pt.DelayNS <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
}

func TestExploreFigure8(t *testing.T) {
	fig, err := New(2).Explore(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) == 0 || fig.Predictions == 0 {
		t.Fatalf("empty figure: %+v", fig)
	}
}

func TestFormatTable1MatchesPaperValues(t *testing.T) {
	s := FormatTable1()
	for _, want := range []string{"add1", "4200", "34", "mul2", "9800", "2950", "register", "31", "mux", "18"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestFormatTable2MatchesPaperValues(t *testing.T) {
	s := FormatTable2()
	for _, want := range []string{"311.02", "362.20", "64", "84", "25.0", "297.60"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, s)
		}
	}
}

func TestFormatCountsAndResults(t *testing.T) {
	cs := FormatCounts([]CountsRow{{Partitions: 1, Total: 10, Feasible: 2}})
	if !strings.Contains(cs, "10") || !strings.Contains(cs, "2") {
		t.Fatalf("FormatCounts: %s", cs)
	}
	rs := FormatResults([]ResultRow{{
		Partitions: 2, Package: 2, Heuristic: "E", Trials: 5, FeasibleTrials: 1,
		Points: []DesignPoint{{II: 30, Delay: 57, ClockNS: 310}},
	}, {
		Partitions: 1, Package: 2, Heuristic: "I",
	}})
	if !strings.Contains(rs, "30") || !strings.Contains(rs, "57") || !strings.Contains(rs, "310") {
		t.Fatalf("FormatResults: %s", rs)
	}
	if !strings.Contains(rs, "-") {
		t.Fatal("empty rows must render placeholders")
	}
}

func TestFormatFigure(t *testing.T) {
	f := Figure{Points: []core.SpacePoint{{AreaML: 100, DelayNS: 2000, IIMain: 30, Feasible: true}}}
	s := FormatFigure(f)
	if !strings.Contains(s, "area_mil2,delay_ns") || !strings.Contains(s, "100,2000,30,true") {
		t.Fatalf("FormatFigure: %s", s)
	}
}

func TestAccuracyTable(t *testing.T) {
	rows, err := Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no accuracy rows")
	}
	for _, r := range rows {
		cellRatio := r.BoundCell / r.PredCell
		if cellRatio < 0.5 || cellRatio > 1.5 {
			t.Fatalf("cell-area ratio %.2f outside the accuracy band: %+v", cellRatio, r)
		}
		if r.PredRegBits < r.BoundRegBits {
			t.Fatalf("register prediction must not under-estimate binding: %+v", r)
		}
	}
	s := FormatAccuracy(rows)
	if !strings.Contains(s, "ratio") {
		t.Fatalf("FormatAccuracy: %s", s)
	}
}
