// Package experiments reproduces the evaluation of the CHOP paper: the
// AR-lattice-filter experiments of section 3, regenerating Tables 3-6 and
// the design-space explorations of Figures 7 and 8 (Tables 1 and 2 are the
// library and package inputs, also printable from here).
//
// Experiment 1 (paper 3.1): single-cycle-operation style, datapath clock
// 10x the 300 ns main clock, transfer clock at main speed, performance and
// delay constraints of 30000 ns.
//
// Experiment 2 (paper 3.2): multi-cycle operations, all clocks at 300 ns,
// performance tightened to 20000 ns.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/rtl"
	"chop/internal/stats"
)

// Experiment is one of the paper's two experimental setups.
type Experiment struct {
	// Number is 1 or 2.
	Number int
	// Name describes the architecture style.
	Name string
	// Cfg is the CHOP configuration (library, clocks, style, constraints).
	Cfg core.Config
	// Graph is the AR lattice filter benchmark.
	Graph *dfg.Graph
}

// New returns the paper's experiment setup for n in {1, 2}.
func New(n int) *Experiment {
	cfg := core.Config{
		Lib:    lib.Table1Library(),
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 10, TransferMult: 1},
		Constraints: core.Constraints{
			Perf:  stats.Constraint{Bound: 30000, MinProb: 1},
			Delay: stats.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}
	name := "single-cycle operations, datapath clock 3000 ns"
	if n == 2 {
		cfg.Style = bad.Style{MultiCycle: true}
		cfg.Clocks = bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1}
		cfg.Constraints.Perf = stats.Constraint{Bound: 20000, MinProb: 1}
		name = "multi-cycle operations, all clocks 300 ns"
	} else if n != 1 {
		panic("experiments: only experiments 1 and 2 exist")
	}
	return &Experiment{Number: n, Name: name, Cfg: cfg, Graph: dfg.ARLatticeFilter(16)}
}

// Partitioning builds the n-partition AR-filter setup on n chips of the
// given Table-2 package (pkg is 1 or 2, as in the paper's "Package Type"
// column; package 1 has 64 pins, package 2 has 84).
func (e *Experiment) Partitioning(n, pkg int) *core.Partitioning {
	pkgs := chip.MOSISPackages()
	if pkg < 1 || pkg > len(pkgs) {
		panic(fmt.Sprintf("experiments: package type %d not in Table 2", pkg))
	}
	return &core.Partitioning{
		Graph:    e.Graph,
		Parts:    dfg.LevelPartitions(e.Graph, n),
		PartChip: seq(n),
		Chips:    chip.NewUniformSet(n, pkgs[pkg-1], 4),
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// CountsRow is one row of Table 3 or 5: BAD prediction statistics per
// partition count.
type CountsRow struct {
	Partitions int
	Total      int // total number of predictions
	Feasible   int // number of feasible predictions
}

// PredictionCounts regenerates Table 3 (experiment 1) or Table 5
// (experiment 2): the statistics on the results from BAD for 1, 2 and 3
// partitions on the 84-pin package.
func (e *Experiment) PredictionCounts() ([]CountsRow, error) {
	var rows []CountsRow
	for n := 1; n <= 3; n++ {
		preds, err := core.PredictPartitions(e.Partitioning(n, 2), e.Cfg)
		if err != nil {
			return nil, err
		}
		row := CountsRow{Partitions: n}
		for _, r := range preds {
			row.Total += r.Total
			row.Feasible += r.Feasible
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DesignPoint is one feasible, non-inferior global design in a results row.
type DesignPoint struct {
	II      int     // initiation interval, main-clock cycles
	Delay   int     // system delay, main-clock cycles
	ClockNS float64 // adjusted clock cycle, ns (most likely)
}

// ResultRow is one row of Table 4 or 6.
type ResultRow struct {
	Partitions     int
	Package        int // Table-2 package type (1 or 2)
	Heuristic      string
	CPU            time.Duration
	Trials         int // "Partitioning Imp. Trials"
	FeasibleTrials int // "Feasible Trials"
	Points         []DesignPoint
}

// resultConfigs is the (partition count, package) schedule of Tables 4/6.
var resultConfigs = []struct{ n, pkg int }{
	{1, 2}, {2, 2}, {2, 1}, {3, 2},
}

// Results regenerates Table 4 (experiment 1) or Table 6 (experiment 2):
// both heuristics over the paper's partition-count / package schedule.
//
// Unless the caller attached a predictor cache, the rows predict through a
// memo that lives for this one call: the iterative row reuses the
// enumeration row's predictions, and package-1 rows reuse package-2's
// (both packages have the same project area, so BAD sees the same
// inputs). A row's CPU therefore excludes a prediction an earlier row of
// the same call already made. The memo never outlives the call, so every
// call predicts what it reports.
func (e *Experiment) Results() ([]ResultRow, error) {
	cfg := e.Cfg
	if cfg.PredictCache == nil {
		cfg.PredictCache = bad.NewPredictCache(0)
	}
	var rows []ResultRow
	for _, rc := range resultConfigs {
		for _, h := range []core.Heuristic{core.Enumeration, core.Iterative} {
			p := e.Partitioning(rc.n, rc.pkg)
			start := time.Now()
			res, _, err := core.Run(p, cfg, h)
			if err != nil {
				return nil, err
			}
			row := ResultRow{
				Partitions:     rc.n,
				Package:        rc.pkg,
				Heuristic:      h.String(),
				CPU:            time.Since(start),
				Trials:         res.Trials,
				FeasibleTrials: res.FeasibleTrials,
			}
			for _, b := range res.Best {
				row.Points = append(row.Points, DesignPoint{
					II: b.IIMain, Delay: b.DelayMain, ClockNS: b.Clock.ML,
				})
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure is the outcome of a no-pruning design-space exploration (paper
// Figs. 7 and 8): every encountered global design point plus the run-time
// comparison against the pruned search.
type Figure struct {
	// Points are all explored global designs (area vs delay scatter).
	Points []core.SpacePoint
	// Predictions / UniquePredictions are the BAD prediction totals over
	// all partitionings explored.
	Predictions, UniquePredictions int
	// FullTrials / FullCPU measure the exploration without pruning;
	// PrunedTrials / PrunedCPU the same search with pruning enabled.
	FullTrials, PrunedTrials int
	FullCPU, PrunedCPU       time.Duration
}

// Explore regenerates the figure data over the given partition counts on
// the 84-pin package: Figure 7 is Explore(1,2,3) on experiment 1; Figure 8
// is Explore(1) on experiment 2 (the paper could not complete the larger
// run "due to swap space problems").
func (e *Experiment) Explore(partitionCounts ...int) (Figure, error) {
	var fig Figure
	full := e.Cfg
	full.KeepAll = true
	for _, n := range partitionCounts {
		start := time.Now()
		res, preds, err := core.Run(e.Partitioning(n, 2), full, core.Enumeration)
		if err != nil {
			return fig, err
		}
		fig.FullCPU += time.Since(start)
		fig.FullTrials += res.Trials
		fig.Points = append(fig.Points, res.Space...)
		for _, r := range preds {
			fig.Predictions += r.Total
			fig.UniquePredictions += r.Unique
		}

		start = time.Now()
		pruned, _, err := core.Run(e.Partitioning(n, 2), e.Cfg, core.Enumeration)
		if err != nil {
			return fig, err
		}
		fig.PrunedCPU += time.Since(start)
		fig.PrunedTrials += pruned.Trials
	}
	return fig, nil
}

// ---- formatting -----------------------------------------------------------

// FormatTable1 renders the paper's Table 1 component library.
func FormatTable1() string {
	l := lib.Table1Library()
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-16s %5s %9s %7s\n", "Module", "Type", "Bits", "Area", "Delay")
	for _, m := range l.Modules {
		fmt.Fprintf(&b, "%-10s %-16s %5d %9.0f %7.0f\n", m.Name, opName(m), m.Width, m.Area, m.Delay)
	}
	fmt.Fprintf(&b, "%-10s %-16s %5d %9.0f %7.0f\n", l.Register.Name, "Register", 1, l.Register.Area, l.Register.Delay)
	fmt.Fprintf(&b, "%-10s %-16s %5d %9.0f %7.0f\n", l.Mux.Name, "2:1 Multiplexer", 1, l.Mux.Area, l.Mux.Delay)
	return b.String()
}

func opName(m lib.Module) string {
	switch m.Op {
	case dfg.OpAdd:
		return "Addition"
	case dfg.OpMul:
		return "Multiplication"
	default:
		return string(m.Op)
	}
}

// FormatTable2 renders the paper's Table 2 package subset.
func FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-3s %8s %8s %6s %10s %9s\n", "No", "X (mil)", "Y (mil)", "Pins", "PadDelay", "PadArea")
	for i, p := range chip.MOSISPackages() {
		fmt.Fprintf(&b, "%-3d %8.2f %8.2f %6d %10.1f %9.2f\n",
			i+1, p.Width, p.Height, p.Pins, p.PadDelay, p.PadArea)
	}
	return b.String()
}

// FormatCounts renders a Table 3/5 row set.
func FormatCounts(rows []CountsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %22s %22s\n", "Partition Count", "Total predictions", "Feasible predictions")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16d %22d %22d\n", r.Partitions, r.Total, r.Feasible)
	}
	return b.String()
}

// FormatResults renders a Table 4/6 row set.
func FormatResults(rows []ResultRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-7s %-2s %-10s %-7s %-8s %-10s %-6s %-6s\n",
		"Parts", "Package", "H", "CPU", "Trials", "Feasible", "Interval", "Delay", "Clock")
	for _, r := range rows {
		prefix := fmt.Sprintf("%-5d %-7d %-2s %-10s %-7d %-8d",
			r.Partitions, r.Package, r.Heuristic, r.CPU.Round(time.Microsecond), r.Trials, r.FeasibleTrials)
		if len(r.Points) == 0 {
			fmt.Fprintf(&b, "%s %-10s %-6s %-6s\n", prefix, "-", "-", "-")
			continue
		}
		for i, pt := range r.Points {
			if i > 0 {
				prefix = strings.Repeat(" ", len(prefix))
			}
			fmt.Fprintf(&b, "%s %-10d %-6d %-6.0f\n", prefix, pt.II, pt.Delay, pt.ClockNS)
		}
	}
	return b.String()
}

// FormatFigure summarizes an exploration and renders the scatter as CSV
// (area, delay, interval, feasible).
func FormatFigure(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# predictions=%d unique=%d\n", f.Predictions, f.UniquePredictions)
	fmt.Fprintf(&b, "# full search:   %d trials in %s\n", f.FullTrials, f.FullCPU.Round(time.Microsecond))
	fmt.Fprintf(&b, "# pruned search: %d trials in %s\n", f.PrunedTrials, f.PrunedCPU.Round(time.Microsecond))
	b.WriteString("area_mil2,delay_ns,interval_cycles,feasible\n")
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%.0f,%.0f,%d,%v\n", pt.AreaML, pt.DelayNS, pt.IIMain, pt.Feasible)
	}
	return b.String()
}

// AccuracyRow compares one predicted AR-filter design against its bound
// netlist (the paper's claim that BAD "has been very accurate", measured).
type AccuracyRow struct {
	Style               string
	II, Latency         int
	PredRegBits         int
	BoundRegBits        int
	PredMux, BoundMux   int
	PredCell, BoundCell float64
}

// Accuracy binds every frontier design of the single-partition AR filter
// under experiment-2 settings and reports predicted-vs-bound register bits,
// mux cells and cell area.
func Accuracy() ([]AccuracyRow, error) {
	e := New(2)
	g := e.Graph
	cfg := bad.Config{
		Lib:     e.Cfg.Lib,
		Style:   e.Cfg.Style,
		Clocks:  e.Cfg.Clocks,
		MaxArea: chip.MOSISPackages()[1].ProjectArea(),
		Perf:    e.Cfg.Constraints.Perf,
		Delay:   e.Cfg.Constraints.Delay,
	}
	res, err := bad.Predict(g, cfg)
	if err != nil {
		return nil, err
	}
	var rows []AccuracyRow
	for _, d := range res.Designs {
		cyc := rtl.OpCyclesFor(d, cfg.Style.MultiCycle, cfg.Clocks.DatapathNS())
		nl, err := rtl.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			return nil, err
		}
		predCell := 0.0
		for _, op := range d.FUOps() {
			predCell += float64(d.FUs[op]) * d.ModuleSet[op].Area
		}
		predCell += float64(d.RegBits)*cfg.Lib.Register.Area + float64(d.Mux1Bit)*cfg.Lib.Mux.Area
		rows = append(rows, AccuracyRow{
			Style:        d.Style.String(),
			II:           d.II,
			Latency:      d.Latency,
			PredRegBits:  d.RegBits,
			BoundRegBits: nl.RegisterBits(),
			PredMux:      d.Mux1Bit,
			BoundMux:     nl.Mux1Bit(),
			PredCell:     predCell,
			BoundCell:    nl.CellArea(cfg.Lib),
		})
	}
	return rows, nil
}

// FormatAccuracy renders the accuracy table.
func FormatAccuracy(rows []AccuracyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %4s %4s %10s %10s %10s %10s %12s %12s %6s\n",
		"Style", "II", "Lat", "regs:pred", "regs:bound", "mux:pred", "mux:bound",
		"cell:pred", "cell:bound", "ratio")
	for _, r := range rows {
		ratio := r.BoundCell / r.PredCell
		fmt.Fprintf(&b, "%-14s %4d %4d %10d %10d %10d %10d %12.0f %12.0f %6.2f\n",
			r.Style, r.II, r.Latency, r.PredRegBits, r.BoundRegBits,
			r.PredMux, r.BoundMux, r.PredCell, r.BoundCell, ratio)
	}
	return b.String()
}
