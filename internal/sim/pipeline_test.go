package sim

import (
	"math/rand"
	"testing"

	"chop/internal/bad"
	"chop/internal/chip"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/rtl"
	"chop/internal/stats"
)

// bindPipelinedAR binds every pipelined frontier design of the AR filter.
func bindPipelinedAR(t *testing.T) (*dfg.Graph, []*rtl.Netlist) {
	t.Helper()
	g := dfg.ARLatticeFilter(16)
	cfg := bad.Config{
		Lib:     lib.Table1Library(),
		Style:   bad.Style{MultiCycle: true},
		Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
		MaxArea: 2 * chip.MOSISPackages()[1].ProjectArea(),
		Perf:    stats.Constraint{Bound: 20000, MinProb: 1},
		Delay:   stats.Constraint{Bound: 30000, MinProb: 0.8},
	}
	res, err := bad.Predict(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var nets []*rtl.Netlist
	for _, d := range res.Designs {
		if d.Style != bad.Pipelined {
			continue
		}
		cyc := rtl.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
		nl, err := rtl.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			t.Fatalf("bind pipelined ii=%d: %v", d.II, err)
		}
		if nl.II >= nl.Latency {
			t.Fatalf("not actually pipelined: II=%d latency=%d", nl.II, nl.Latency)
		}
		nets = append(nets, nl)
	}
	if len(nets) == 0 {
		t.Fatal("no pipelined designs in frontier")
	}
	return g, nets
}

func arVectors(n int, seed int64) []map[string]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]map[string]int64, n)
	for i := range out {
		out[i] = map[string]int64{
			"x1": int64(rng.Intn(200) - 100),
			"x2": int64(rng.Intn(200) - 100),
			"x3": int64(rng.Intn(200) - 100),
			"x4": int64(rng.Intn(200) - 100),
		}
	}
	return out
}

// TestPipelinedStreamMatchesGolden is the overlapped-sample verification:
// with a new sample entering every II cycles (II < latency, so several
// samples coexist in the datapath), every sample's outputs must match the
// golden model. This exercises FU sharing and register sharing modulo II.
func TestPipelinedStreamMatchesGolden(t *testing.T) {
	g, nets := bindPipelinedAR(t)
	for i, nl := range nets {
		if err := Verify(g, nl, arVectors(8, int64(i+1)), nil); err != nil {
			t.Fatalf("netlist %d (II=%d, latency=%d): %v", i, nl.II, nl.Latency, err)
		}
	}
}

func TestPipelinedEmptyStream(t *testing.T) {
	g, nets := bindPipelinedAR(t)
	outs, err := Run(g, nets[0], nil, nil)
	if err != nil || outs != nil {
		t.Fatalf("empty stream: %v, %v", outs, err)
	}
}

func TestPipelinedRandomBehaviors(t *testing.T) {
	for seed := int64(40); seed <= 46; seed++ {
		g := dfg.RandomDAG(seed, 4, 16, 16)
		cfg := bad.Config{
			Lib:     lib.ExtendedLibrary(),
			Style:   bad.Style{MultiCycle: true, NoNonPipelined: true},
			Clocks:  bad.Clocks{MainNS: 300, DatapathMult: 1, TransferMult: 1},
			MaxArea: 8 * chip.MOSISPackages()[1].ProjectArea(),
			MaxII:   60,
		}
		res, err := bad.Predict(g, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Designs) == 0 {
			continue // shallow graph: nothing to pipeline
		}
		d := res.Designs[0]
		cyc := rtl.OpCyclesFor(d, true, cfg.Clocks.DatapathNS())
		nl, err := rtl.Bind(g, d, cfg.Lib, cyc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed))
		vecs := make([]map[string]int64, 5)
		for i := range vecs {
			vecs[i] = map[string]int64{}
			for _, id := range g.Inputs() {
				vecs[i][g.Nodes[id].Name] = int64(rng.Intn(101) - 50)
			}
		}
		if err := Verify(g, nl, vecs, nil); err != nil {
			t.Fatalf("seed %d (II=%d latency=%d): %v", seed, nl.II, nl.Latency, err)
		}
	}
}
