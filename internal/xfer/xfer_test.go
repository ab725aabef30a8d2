package xfer

import (
	"testing"
	"testing/quick"

	"chop/internal/dfg"
	"chop/internal/lib"
)

func TestBuildTasksDiamondTwoChips(t *testing.T) {
	g := dfg.New("d")
	in := g.AddNode("in", dfg.OpInput, 16)
	a := g.AddNode("a", dfg.OpAdd, 16)
	b := g.AddNode("b", dfg.OpAdd, 16)
	o := g.AddNode("o", dfg.OpOutput, 16)
	g.MustConnect(in, a)
	g.MustConnect(a, b)
	g.MustConnect(b, o)
	assign := map[int]int{a: 0, b: 1}
	tasks, err := BuildTasks(g, assign, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// ext->P1 (input), P1->P2, P2->ext (output)
	if len(tasks) != 3 {
		t.Fatalf("tasks = %+v", tasks)
	}
	names := map[string]Task{}
	for _, tk := range tasks {
		names[tk.Name] = tk
	}
	if tk, ok := names["T:P1->P2"]; !ok || tk.Bits != 16 || tk.FromChip != 0 || tk.ToChip != 1 {
		t.Fatalf("P1->P2 task wrong: %+v", names)
	}
	if tk, ok := names["T:ext->P1"]; !ok || tk.FromChip != External {
		t.Fatalf("input task wrong: %+v", names)
	}
}

func TestBuildTasksSameChipElided(t *testing.T) {
	g := dfg.New("d")
	a := g.AddNode("a", dfg.OpAdd, 16)
	b := g.AddNode("b", dfg.OpAdd, 16)
	g.MustConnect(a, b)
	assign := map[int]int{a: 0, b: 1}
	// both partitions on chip 0: inter-partition transfer stays on-chip
	tasks, err := BuildTasks(g, assign, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tasks {
		if tk.FromPart == 0 && tk.ToPart == 1 {
			t.Fatalf("same-chip transfer not elided: %+v", tk)
		}
	}
}

func TestBuildTasksBadAssignment(t *testing.T) {
	g := dfg.New("d")
	a := g.AddNode("a", dfg.OpAdd, 16)
	b := g.AddNode("b", dfg.OpAdd, 16)
	g.MustConnect(a, b)
	assign := map[int]int{a: 0, b: 5}
	if _, err := BuildTasks(g, assign, []int{0}); err == nil {
		t.Fatal("partition without chip accepted")
	}
}

func TestTaskChips(t *testing.T) {
	tk := Task{FromChip: 0, ToChip: 1}
	if got := tk.Chips(); len(got) != 2 {
		t.Fatalf("Chips = %v", got)
	}
	ext := Task{FromChip: External, ToChip: 2}
	if got := ext.Chips(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Chips = %v", got)
	}
	same := Task{FromChip: 1, ToChip: 1}
	if !same.OnChipOnly() {
		t.Fatal("same-chip task not detected")
	}
	if got := same.Chips(); len(got) != 1 {
		t.Fatalf("Chips = %v", got)
	}
}

func TestBandwidth(t *testing.T) {
	tk := Task{FromChip: 0, ToChip: 1, Bits: 100}
	budget := []int{40, 25}
	if got := Bandwidth(tk.Bits, tk.Chips(), budget); got != 25 {
		t.Fatalf("Bandwidth = %d, want min chip budget 25", got)
	}
	small := Task{FromChip: 0, ToChip: 1, Bits: 10}
	if got := Bandwidth(small.Bits, small.Chips(), budget); got != 10 {
		t.Fatalf("Bandwidth capped at payload: %d", got)
	}
	extIn := Task{FromChip: External, ToChip: 1, Bits: 100}
	if got := Bandwidth(extIn.Bits, extIn.Chips(), budget); got != 25 {
		t.Fatalf("external endpoint must not limit: %d", got)
	}
	starved := Task{FromChip: 0, ToChip: 1, Bits: 10}
	if got := Bandwidth(starved.Bits, starved.Chips(), []int{0, 9}); got != 0 {
		t.Fatalf("zero budget must give 0: %d", got)
	}
}

func TestTransferCycles(t *testing.T) {
	cases := []struct{ bits, pins, want int }{
		{0, 10, 0}, {10, 0, -1}, {16, 16, 1}, {17, 16, 2}, {96, 58, 2}, {32, 58, 1},
	}
	for _, c := range cases {
		if got := TransferCycles(c.bits, c.pins); got != c.want {
			t.Errorf("TransferCycles(%d,%d) = %d, want %d", c.bits, c.pins, got, c.want)
		}
	}
}

func TestBufferBitsPaperFormula(t *testing.T) {
	// B = D*(ceil(W/l) + X/l): D=32, W=25, X=2, l=10 -> 32*(3+0.2)=102.4 -> 103
	if got := BufferBits(32, 25, 2, 10); got != 103 {
		t.Fatalf("BufferBits = %d, want 103", got)
	}
	// No wait, instant-ish transfer still holds one sample.
	if got := BufferBits(16, 0, 1, 30); got != 16 {
		t.Fatalf("minimum one sample: %d", got)
	}
	if got := BufferBits(0, 5, 5, 10); got != 0 {
		t.Fatalf("no payload: %d", got)
	}
	if got := BufferBits(16, 3, 2, 0); got != 16 {
		t.Fatalf("unset interval falls back to D: %d", got)
	}
}

func TestBufferGrowsWithWait(t *testing.T) {
	prev := 0
	for w := 0; w <= 100; w += 10 {
		b := BufferBits(32, w, 4, 10)
		if b < prev {
			t.Fatalf("buffer shrank with longer wait: W=%d B=%d prev=%d", w, b, prev)
		}
		prev = b
	}
	if BufferBits(32, 100, 4, 10) <= BufferBits(32, 0, 4, 10) {
		t.Fatal("long wait must enlarge buffer")
	}
}

func TestPredictModule(t *testing.T) {
	l := lib.Table1Library()
	tk := Task{Name: "T:P1->P2", FromChip: 0, ToChip: 1, Bits: 32, Values: 2}
	m := PredictModule(tk, 12, 2, 16, 30, l)
	if m.BufferBits < 32 {
		t.Fatalf("BufferBits = %d", m.BufferBits)
	}
	if !m.Area.Valid() || m.Area.ML <= 0 {
		t.Fatalf("Area = %v", m.Area)
	}
	if !m.CtrlDelay.Valid() || m.CtrlDelay.ML <= 0 {
		t.Fatalf("CtrlDelay = %v", m.CtrlDelay)
	}
	if m.Pins != 16 || m.Wait != 12 || m.Transfer != 2 {
		t.Fatalf("module fields: %+v", m)
	}
}

func TestPredictModuleAreaGrowsWithBufferAndPins(t *testing.T) {
	l := lib.Table1Library()
	tk := Task{Bits: 32}
	small := PredictModule(tk, 0, 1, 8, 30, l)
	big := PredictModule(tk, 90, 1, 8, 30, l) // long wait -> bigger buffer
	if big.Area.ML <= small.Area.ML {
		t.Fatal("area must grow with buffer size")
	}
	wide := PredictModule(tk, 0, 1, 32, 30, l)
	if wide.Area.ML <= small.Area.ML {
		t.Fatal("area must grow with pin count")
	}
}

func TestMemoryControlPins(t *testing.T) {
	if got := MemoryControlPins([]int{28, 18}); got != 46 {
		t.Fatalf("MemoryControlPins = %d", got)
	}
	if got := MemoryControlPins(nil); got != 0 {
		t.Fatalf("empty = %d", got)
	}
}

func TestPropBufferAtLeastPayload(t *testing.T) {
	f := func(d, w, x, l uint8) bool {
		D := int(d%64) + 1
		B := BufferBits(D, int(w), int(x%32)+1, int(l%64)+1)
		return B >= D
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransferCyclesCoverPayload(t *testing.T) {
	f := func(bits, pins uint16) bool {
		b, p := int(bits%2000)+1, int(pins%120)+1
		x := TransferCycles(b, p)
		return x >= 1 && x*p >= b && (x-1)*p < b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
