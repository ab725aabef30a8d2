package ctrl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	if err := (Spec{Inputs: 4, Outputs: 8, ProductTerms: 10}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Spec{
		{Inputs: -1, Outputs: 1, ProductTerms: 1},
		{Inputs: 1, Outputs: 0, ProductTerms: 1},
		{Inputs: 1, Outputs: 1, ProductTerms: 0},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestAreaFormula(t *testing.T) {
	s := Spec{Inputs: 5, Outputs: 10, ProductTerms: 20}
	// (2*5+10)*20 crosspoints * 1.2 + (20+20)*30 drivers
	want := 20.0*20*CellArea + 40*DriverArea
	a := s.Area()
	if a.ML != want {
		t.Fatalf("Area.ML = %v, want %v", a.ML, want)
	}
	if !a.Valid() || a.Lo >= a.ML || a.Hi <= a.ML {
		t.Fatalf("area triplet malformed: %v", a)
	}
}

func TestAreaMonotonicInEachDimension(t *testing.T) {
	base := Spec{Inputs: 4, Outputs: 8, ProductTerms: 16}
	for _, grow := range []Spec{
		{Inputs: 5, Outputs: 8, ProductTerms: 16},
		{Inputs: 4, Outputs: 9, ProductTerms: 16},
		{Inputs: 4, Outputs: 8, ProductTerms: 17},
	} {
		if grow.Area().ML <= base.Area().ML {
			t.Errorf("area not monotone: %+v vs %+v", grow, base)
		}
	}
}

func TestDelaySmallRelativeToClock(t *testing.T) {
	// A typical partition controller (tens of states) must contribute only
	// a few nanoseconds so that the adjusted clock stays near 300 ns as in
	// the paper's Tables 4 and 6.
	s := ForFSM(60, 0, 40)
	d := s.Delay()
	if d.ML < 1 || d.ML > 15 {
		t.Fatalf("controller delay %v ns out of the plausible band", d.ML)
	}
}

func TestDelayMonotone(t *testing.T) {
	small := Spec{Inputs: 2, Outputs: 4, ProductTerms: 8}
	big := Spec{Inputs: 8, Outputs: 32, ProductTerms: 128}
	if big.Delay().ML <= small.Delay().ML {
		t.Fatal("delay must grow with PLA size")
	}
}

func TestStateBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for states, want := range cases {
		if got := StateBits(states); got != want {
			t.Errorf("StateBits(%d) = %d, want %d", states, got, want)
		}
	}
}

// TestStateBitsMatchesFloatForm: the integer StateBits agrees with the
// float ceil(log2) it replaced, over every count up to 2^20 and at 2^k-1,
// 2^k and 2^k+1 for k <= 48 (the float form first errs at 2^49+1).
func TestStateBitsMatchesFloatForm(t *testing.T) {
	float := func(states int) int {
		if states <= 1 {
			return 1
		}
		return int(math.Ceil(math.Log2(float64(states))))
	}
	check := func(states int) {
		if got, want := StateBits(states), float(states); got != want {
			t.Fatalf("StateBits(%d) = %d, float form %d", states, got, want)
		}
	}
	for states := 0; states <= 1<<20; states++ {
		check(states)
	}
	for k := 0; k <= 48; k++ {
		check(1<<k - 1)
		check(1 << k)
		check(1<<k + 1)
	}
}

func TestForFSM(t *testing.T) {
	s := ForFSM(10, 2, 25)
	if s.Inputs != 4+2 { // ceil(log2 10)=4 state bits + 2 conditions
		t.Fatalf("Inputs = %d", s.Inputs)
	}
	if s.Outputs != 4+25 {
		t.Fatalf("Outputs = %d", s.Outputs)
	}
	if s.ProductTerms != 13 {
		t.Fatalf("ProductTerms = %d", s.ProductTerms)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPropFSMSpecsAlwaysValid(t *testing.T) {
	f := func(states, conds, sigs uint8) bool {
		s := ForFSM(int(states), int(conds), int(sigs))
		return s.Validate() == nil && s.Area().Valid() && s.Delay().Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
