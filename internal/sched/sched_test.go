package sched

import (
	"testing"
	"testing/quick"

	"chop/internal/dfg"
)

func unit(n dfg.Node) int { return 1 }

// chainGraph builds in -> a1 -> a2 -> ... -> an -> out.
func chainGraph(n int) *dfg.Graph {
	g := dfg.New("chain")
	prev := g.AddNode("in", dfg.OpInput, 16)
	for i := 0; i < n; i++ {
		id := g.AddNode(name("a", i), dfg.OpAdd, 16)
		g.MustConnect(prev, id)
		prev = id
	}
	out := g.AddNode("out", dfg.OpOutput, 16)
	g.MustConnect(prev, out)
	return g
}

// wideGraph builds n independent adders fed by one input.
func wideGraph(n int) *dfg.Graph {
	g := dfg.New("wide")
	in := g.AddNode("in", dfg.OpInput, 16)
	for i := 0; i < n; i++ {
		id := g.AddNode(name("a", i), dfg.OpAdd, 16)
		g.MustConnect(in, id)
	}
	return g
}

func name(p string, i int) string { return p + string(rune('0'+i/10)) + string(rune('0'+i%10)) }

func TestListScheduleUnlimitedMatchesASAP(t *testing.T) {
	p := Problem{G: wideGraph(8), Cycles: unit}
	res, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 1 {
		t.Fatalf("unlimited wide graph latency = %d, want 1", res.Latency)
	}
}

func TestListScheduleResourceLimited(t *testing.T) {
	p := Problem{G: wideGraph(8), Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: 2}}
	res, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 4 { // 8 adds / 2 adders
		t.Fatalf("latency = %d, want 4", res.Latency)
	}
}

func TestListScheduleMultiCycleOccupancy(t *testing.T) {
	// 4 independent muls of 3 cycles each on 1 multiplier: latency 12.
	g := dfg.New("mc4")
	in := g.AddNode("in", dfg.OpInput, 16)
	for i := 0; i < 4; i++ {
		m := g.AddNode(name("m", i), dfg.OpMul, 16)
		g.MustConnect(in, m)
	}
	p := Problem{G: g, Cycles: func(n dfg.Node) int { return 3 }, Limit: map[dfg.Op]int{dfg.OpMul: 1}}
	res, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 12 {
		t.Fatalf("latency = %d, want 12", res.Latency)
	}
}

func TestListScheduleRespectsPrecedence(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	p := Problem{G: g, Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: 1, dfg.OpMul: 1}}
	res, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges {
		if !g.Nodes[e.From].Op.NeedsFU() || !g.Nodes[e.To].Op.NeedsFU() {
			continue
		}
		if res.Start[e.To] < res.Start[e.From]+1 {
			t.Fatalf("edge %d->%d violated: %d -> %d", e.From, e.To, res.Start[e.From], res.Start[e.To])
		}
	}
	// 16 muls on 1 multiplier is the floor.
	if res.Latency < 16 {
		t.Fatalf("latency %d below resource bound 16", res.Latency)
	}
}

func TestListScheduleNeverExceedsLimits(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	limits := map[dfg.Op]int{dfg.OpAdd: 2, dfg.OpMul: 3}
	p := Problem{G: g, Cycles: func(n dfg.Node) int {
		if n.Op == dfg.OpMul {
			return 2
		}
		return 1
	}, Limit: limits}
	res, err := ListSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	use := map[dfg.Op]map[int]int{dfg.OpAdd: {}, dfg.OpMul: {}}
	for id, n := range g.Nodes {
		if !n.Op.NeedsFU() {
			continue
		}
		dur := 1
		if n.Op == dfg.OpMul {
			dur = 2
		}
		for k := 0; k < dur; k++ {
			use[n.Op][res.Start[id]+k]++
		}
	}
	for op, m := range use {
		for cyc, c := range m {
			if c > limits[op] {
				t.Fatalf("cycle %d uses %d %s FUs (limit %d)", cyc, c, op, limits[op])
			}
		}
	}
}

func TestListScheduleRejectsBadLimit(t *testing.T) {
	p := Problem{G: wideGraph(2), Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: 0}}
	if _, err := ListSchedule(p); err == nil {
		t.Fatal("zero FU limit accepted")
	}
}

func TestMinFUs(t *testing.T) {
	p := Problem{G: wideGraph(8), Cycles: unit}
	need := MinFUs(p, 2)
	if need[dfg.OpAdd] != 4 {
		t.Fatalf("MinFUs = %v", need)
	}
	need = MinFUs(p, 8)
	if need[dfg.OpAdd] != 1 {
		t.Fatalf("MinFUs(8) = %v", need)
	}
}

func TestPipelinedScheduleBasic(t *testing.T) {
	// 8 independent adds, 2 adders, II=4: exactly saturated.
	p := Problem{G: wideGraph(8), Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: 2}}
	res, ok, err := PipelinedSchedule(p, 4)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	use := make([]int, 4)
	for id, n := range p.G.Nodes {
		if n.Op.NeedsFU() {
			use[res.Start[id]%4]++
		}
	}
	for slot, c := range use {
		if c > 2 {
			t.Fatalf("slot %d used %d > 2", slot, c)
		}
	}
}

func TestPipelinedScheduleInfeasible(t *testing.T) {
	// 8 adds on 1 adder cannot sustain II=4.
	p := Problem{G: wideGraph(8), Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: 1}}
	_, ok, err := PipelinedSchedule(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("undersized allocation accepted")
	}
}

func TestPipelinedScheduleRespectsPrecedenceAndModulo(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	limits := map[dfg.Op]int{dfg.OpAdd: 3, dfg.OpMul: 4}
	cyc := func(n dfg.Node) int { return 1 }
	p := Problem{G: g, Cycles: cyc, Limit: limits}
	res, ok, err := PipelinedSchedule(p, 4) // 16 muls / 4 mults = 4 -> feasible bound
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("expected feasible modulo schedule")
	}
	for _, e := range g.Edges {
		if !g.Nodes[e.From].Op.NeedsFU() || !g.Nodes[e.To].Op.NeedsFU() {
			continue
		}
		if res.Start[e.To] < res.Start[e.From]+1 {
			t.Fatalf("precedence violated on %d->%d", e.From, e.To)
		}
	}
	use := map[dfg.Op][]int{dfg.OpAdd: make([]int, 4), dfg.OpMul: make([]int, 4)}
	for id, n := range g.Nodes {
		if n.Op.NeedsFU() {
			use[n.Op][res.Start[id]%4]++
		}
	}
	for op, slots := range use {
		for s, c := range slots {
			if c > limits[op] {
				t.Fatalf("%s slot %d: %d > %d", op, s, c, limits[op])
			}
		}
	}
}

func TestPipelinedScheduleRejectsBadII(t *testing.T) {
	p := Problem{G: wideGraph(2), Cycles: unit}
	if _, _, err := PipelinedSchedule(p, 0); err == nil {
		t.Fatal("II=0 accepted")
	}
}

func TestStages(t *testing.T) {
	cases := []struct{ lat, ii, want int }{
		{10, 10, 1}, {11, 10, 2}, {20, 10, 2}, {5, 0, 0}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := Stages(c.lat, c.ii); got != c.want {
			t.Errorf("Stages(%d,%d) = %d, want %d", c.lat, c.ii, got, c.want)
		}
	}
}

func TestPropListLatencyAtLeastCriticalPath(t *testing.T) {
	f := func(nAdders uint8) bool {
		limit := int(nAdders%4) + 1
		g := dfg.ARLatticeFilter(16)
		p := Problem{G: g, Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: limit, dfg.OpMul: limit}}
		res, err := ListSchedule(p)
		if err != nil {
			return false
		}
		cp, err := g.CriticalPath(func(n dfg.Node) float64 {
			if n.Op.NeedsFU() {
				return 1
			}
			return 0
		})
		return err == nil && float64(res.Latency) >= cp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMoreFUsNeverSlower(t *testing.T) {
	g := dfg.ARLatticeFilter(16)
	prev := 1 << 30
	for fu := 1; fu <= 6; fu++ {
		p := Problem{G: g, Cycles: unit, Limit: map[dfg.Op]int{dfg.OpAdd: fu, dfg.OpMul: fu}}
		res, err := ListSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Latency > prev {
			t.Fatalf("latency grew from %d to %d when adding FUs", prev, res.Latency)
		}
		prev = res.Latency
	}
}
