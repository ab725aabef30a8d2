package advisor

import (
	"strings"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/experiments"
	"chop/internal/lib"
	"chop/internal/mem"
	"chop/internal/stats"
)

func newSession(t *testing.T, n int) *Session {
	t.Helper()
	g := dfg.ARLatticeFilter(16)
	p := &core.Partitioning{
		Graph:    g,
		Parts:    dfg.LevelPartitions(g, n),
		PartChip: seq(n),
		Chips:    chip.NewUniformSet(n, chip.MOSISPackages()[1], 4),
	}
	cfg := core.Config{
		Lib:    lib.Table1Library(),
		Style:  bad.Style{MultiCycle: true},
		Clocks: bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		Constraints: core.Constraints{
			Perf:  stats.Constraint{Bound: 20000, MinProb: 1},
			Delay: stats.Constraint{Bound: 30000, MinProb: 0.8},
		},
	}
	s, err := New(p, cfg, core.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func TestNewRejectsInvalid(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	p := &core.Partitioning{Graph: g} // no partitions
	if _, err := New(p, core.Config{}, core.Iterative); err == nil {
		t.Fatal("invalid partitioning accepted")
	}
}

func TestMoveOp(t *testing.T) {
	s := newSession(t, 2)
	// z1 sits at the boundary (level 2); moving it to partition 2 is legal.
	if err := s.MoveOp("z1", 1); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range s.P.Parts[1] {
		if s.P.Graph.Nodes[id].Name == "z1" {
			found = true
		}
	}
	if !found {
		t.Fatal("z1 not in partition 2 after move")
	}
	if err := s.P.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMoveOpRejectsMutualDependency(t *testing.T) {
	s := newSession(t, 2)
	// Moving a rank-1 multiplier (b1_m1, level 0) into partition 2 makes
	// data flow 2 -> ... no; its consumers are in partition 1, so flow goes
	// 2 -> 1 while 1 -> 2 exists: mutual dependency.
	err := s.MoveOp("b1_m1", 1)
	if err == nil || !strings.Contains(err.Error(), "mutual") {
		t.Fatalf("cyclic move accepted: %v", err)
	}
}

func TestMoveOpErrors(t *testing.T) {
	s := newSession(t, 2)
	if err := s.MoveOp("ghost", 1); err == nil {
		t.Fatal("unknown op accepted")
	}
	if err := s.MoveOp("z1", 5); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := s.MoveOp("z1", 0); err == nil {
		t.Fatal("no-op move accepted")
	}
}

func TestMovePartitionAndAddChip(t *testing.T) {
	s := newSession(t, 2)
	if err := s.AddChip(chip.MOSISPackages()[0], 4); err != nil {
		t.Fatal(err)
	}
	if len(s.P.Chips.Chips) != 3 {
		t.Fatal("chip not added")
	}
	if err := s.MovePartition(1, 2); err != nil {
		t.Fatal(err)
	}
	if s.P.PartChip[1] != 2 {
		t.Fatal("partition not moved")
	}
	if err := s.MovePartition(5, 0); err == nil {
		t.Fatal("bad partition accepted")
	}
	if err := s.MovePartition(0, 9); err == nil {
		t.Fatal("bad chip accepted")
	}
}

func TestMoveMemory(t *testing.T) {
	s := newSession(t, 2)
	s.P.Mem = mem.System{
		Blocks: []mem.Block{{Name: "MA", Words: 64, Width: 16, Ports: 1, AccessTime: 100, Area: 4000}},
		Assign: mem.Assignment{"MA": 0},
	}
	if err := s.MoveMemory("MA", 1); err != nil {
		t.Fatal(err)
	}
	if s.P.Mem.Assign["MA"] != 1 {
		t.Fatal("memory not moved")
	}
	if err := s.MoveMemory("MA", -1); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.P.Mem.Assign["MA"]; ok {
		t.Fatal("memory not detached")
	}
	if err := s.MoveMemory("MB", 0); err == nil {
		t.Fatal("unknown block accepted")
	}
}

func TestSplitAndMerge(t *testing.T) {
	s := newSession(t, 2)
	if err := s.SplitPartition(0); err != nil {
		t.Fatal(err)
	}
	if s.P.NumParts() != 3 {
		t.Fatalf("parts = %d after split", s.P.NumParts())
	}
	if err := s.P.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.MergePartitions(0, 2); err != nil {
		t.Fatal(err)
	}
	if s.P.NumParts() != 2 {
		t.Fatalf("parts = %d after merge", s.P.NumParts())
	}
	if err := s.P.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := s.MergePartitions(0, 0); err == nil {
		t.Fatal("self merge accepted")
	}
}

func TestCheckAndReport(t *testing.T) {
	s := newSession(t, 2)
	if !strings.Contains(s.Report(), "not checked yet") {
		t.Fatal("fresh session should report unchecked")
	}
	res, preds, err := s.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 || res.Trials == 0 {
		t.Fatalf("check: %d preds, %d trials", len(preds), res.Trials)
	}
	rep := s.Report()
	if !strings.Contains(rep, "interval=") && !strings.Contains(rep, "INFEASIBLE") {
		t.Fatalf("report lacks outcome: %s", rep)
	}
}

func TestConstraintSettersInvalidateCheck(t *testing.T) {
	s := newSession(t, 2)
	if _, _, err := s.Check(); err != nil {
		t.Fatal(err)
	}
	if s.Last == nil {
		t.Fatal("check not cached")
	}
	s.SetPerf(10000, 1)
	if s.Last != nil {
		t.Fatal("constraint change must invalidate the cached check")
	}
}

func TestImproveNeverWorsens(t *testing.T) {
	s := newSession(t, 3)
	base, _, err := s.Check()
	if err != nil {
		t.Fatal(err)
	}
	next, res, err := Improve(s.P, s.Cfg, s.H, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("improved partitioning invalid: %v", err)
	}
	if better(base, res) {
		t.Fatalf("Improve worsened the design: base %+v vs %+v",
			bestOf(base), bestOf(res))
	}
}

// TestImproveCacheHits pins the predictor cache's traffic in the move
// loop: neighbor partitionings mostly share partition content, so on the
// experiment-1 four-partition setup a fresh content-keyed cache answers
// 84 of Improve's 124 BAD predictions. The loop is serial, so the counts
// are exact.
func TestImproveCacheHits(t *testing.T) {
	e := experiments.New(1)
	cfg := e.Cfg
	cfg.PredictCache = bad.NewPredictCache(0)
	if _, _, err := Improve(e.Partitioning(4, 2), cfg, core.Iterative, 3); err != nil {
		t.Fatal(err)
	}
	if st := cfg.PredictCache.Stats(); st.Hits != 84 || st.Misses != 40 {
		t.Fatalf("cache: %d hits, %d misses; want 84 and 40", st.Hits, st.Misses)
	}
}

func bestOf(r core.SearchResult) any {
	if len(r.Best) == 0 {
		return "infeasible"
	}
	return r.Best[0].IIMain
}

func TestExecScript(t *testing.T) {
	s := newSession(t, 2)
	script := []struct {
		cmd    string
		expect string
	}{
		{"help", "commands:"},
		{"report", "2 partitions"},
		{"check", ""},
		{"chip add 84", "chip 3"},
		{"split 1", "3 partitions"},
		{"part 3 3", "chip 3"},
		{"perf 15000", "perf constraint"},
		{"check", ""},
		{"report", "3 partitions"},
	}
	for _, step := range script {
		out, err := s.Exec(step.cmd)
		if err != nil {
			t.Fatalf("%q: %v", step.cmd, err)
		}
		if step.expect != "" && !strings.Contains(out, step.expect) {
			t.Fatalf("%q: output %q missing %q", step.cmd, out, step.expect)
		}
	}
}

func TestExecErrors(t *testing.T) {
	s := newSession(t, 2)
	for _, cmd := range []string{
		"bogus", "move", "move ghost 1", "part x 1", "chip add 99",
		"merge 1", "perf", "chip frob",
	} {
		if _, err := s.Exec(cmd); err == nil {
			t.Errorf("%q accepted", cmd)
		}
	}
	if out, err := s.Exec(""); err != nil || out != "" {
		t.Fatal("empty line must be a no-op")
	}
}

func TestExecImprove(t *testing.T) {
	s := newSession(t, 3)
	out, err := s.Exec("improve 2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "improved") && !strings.Contains(out, "no feasible") {
		t.Fatalf("improve output: %q", out)
	}
	if err := s.P.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImproveMemoryFindsBetterPlacement(t *testing.T) {
	// A memory block parked on the wrong chip: the improver should find a
	// placement at least as good.
	g := dfg.New("membeh")
	in := g.AddNode("in", dfg.OpInput, 16)
	rd := g.AddMemNode("rd", dfg.OpMemRd, 16, "MA")
	m := g.AddNode("m", dfg.OpMul, 16)
	g.MustConnect(in, m)
	g.MustConnect(rd, m)
	a := g.AddNode("a", dfg.OpAdd, 16)
	g.MustConnect(m, a)
	o := g.AddNode("o", dfg.OpOutput, 16)
	g.MustConnect(a, o)
	p := &core.Partitioning{
		Graph:    g,
		Parts:    [][]int{{m, rd}, {a}},
		PartChip: []int{0, 1},
		Chips:    chip.NewUniformSet(2, chip.MOSISPackages()[0], 4),
		Mem: mem.System{
			Blocks: []mem.Block{{Name: "MA", Words: 128, Width: 16, Ports: 1,
				AccessTime: 100, Area: 9000, ControlPins: 2}},
			Assign: mem.Assignment{"MA": 1}, // away from its reader
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := newSession(t, 2).Cfg
	base, _, err := core.Run(p, cfg, core.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	next, res, err := ImproveMemory(p, cfg, core.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	if better(base, res) {
		t.Fatalf("ImproveMemory worsened the design")
	}
}

func TestExecImproveMem(t *testing.T) {
	s := newSession(t, 2)
	s.P.Mem = mem.System{
		Blocks: []mem.Block{{Name: "MA", Words: 64, Width: 16, Ports: 1,
			AccessTime: 100, Area: 4000, ControlPins: 2}},
		Assign: mem.Assignment{"MA": 0},
	}
	out, err := s.Exec("improve-mem")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "memory placement") && !strings.Contains(out, "no feasible") {
		t.Fatalf("improve-mem output: %q", out)
	}
}

func TestExecMemAndChipPkg(t *testing.T) {
	s := newSession(t, 2)
	s.P.Mem = mem.System{
		Blocks: []mem.Block{{Name: "MA", Words: 64, Width: 16, Ports: 1,
			AccessTime: 100, Area: 4000}},
		Assign: mem.Assignment{"MA": 0},
	}
	steps := []struct{ cmd, expect string }{
		{"mem MA 2", "reassigned"},
		{"mem MA -", "reassigned"},
		{"chip pkg 1 64", "chip 1 now MOSIS-64"},
		{"delay 25000 0.9", "delay constraint"},
		{"power 900", "power constraint"},
		{"merge 1 2", "merged"},
	}
	for _, st := range steps {
		out, err := s.Exec(st.cmd)
		if err != nil {
			t.Fatalf("%q: %v", st.cmd, err)
		}
		if !strings.Contains(out, st.expect) {
			t.Fatalf("%q: got %q", st.cmd, out)
		}
	}
	if s.P.NumParts() != 1 {
		t.Fatalf("merge failed: %d parts", s.P.NumParts())
	}
}

func TestExecMoreErrors(t *testing.T) {
	s := newSession(t, 2)
	for _, cmd := range []string{
		"mem", "mem MA", "mem NOPE 1", "chip", "chip pkg", "chip pkg 1",
		"chip pkg 9 64", "split", "split 9", "merge 1 1", "part 1",
		"delay", "power abc", "improve abc", "move z1 x",
	} {
		if _, err := s.Exec(cmd); err == nil {
			t.Errorf("%q accepted", cmd)
		}
	}
}

func TestSwapPackageValidation(t *testing.T) {
	s := newSession(t, 2)
	if err := s.SwapPackage(5, chip.MOSISPackages()[0]); err == nil {
		t.Fatal("out-of-range chip accepted")
	}
	bad := chip.Package{Name: "tiny", Width: 1, Height: 1, Pins: 200, PadArea: 10}
	if err := s.SwapPackage(0, bad); err == nil {
		t.Fatal("invalid package accepted")
	}
}

func TestAddChipValidation(t *testing.T) {
	s := newSession(t, 2)
	bad := chip.Package{Name: "tiny", Width: 1, Height: 1, Pins: 200, PadArea: 10}
	if err := s.AddChip(bad, 4); err == nil {
		t.Fatal("invalid package accepted")
	}
}

func TestSplitTooSmall(t *testing.T) {
	g := dfg.New("two")
	a := g.AddNode("a", dfg.OpAdd, 16)
	b := g.AddNode("b", dfg.OpAdd, 16)
	g.MustConnect(a, b)
	p := &core.Partitioning{
		Graph:    g,
		Parts:    [][]int{{a}, {b}},
		PartChip: []int{0, 1},
		Chips:    chip.NewUniformSet(2, chip.MOSISPackages()[1], 4),
	}
	s, err := New(p, newSession(t, 2).Cfg, core.Iterative)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SplitPartition(0); err == nil {
		t.Fatal("singleton split accepted")
	}
}
