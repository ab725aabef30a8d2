package obs

import (
	"reflect"
	"testing"
)

// The exemplar store is SlowTrials: it keeps a run's ExemplarTopK slowest
// trials, slowest first.

// TestExemplarStoreKeepsSlowest: the store keeps the ExemplarTopK slowest
// trials offered, slowest first, whatever the offer order, and a trial
// tying a kept one goes behind it.
func TestExemplarStoreKeepsSlowest(t *testing.T) {
	var s SlowTrials
	for i := 0; i < 20; i++ {
		d := (i * 7) % 20 // every duration 0..19 once, out of order
		s.Observe(Exemplar{DurUS: float64(d), Shard: d})
	}
	want := make([]float64, ExemplarTopK)
	for i := range want {
		want[i] = float64(19 - i)
	}
	if got := durations(s.Trials()); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	s.Observe(Exemplar{DurUS: 18, Shard: -1})
	top := s.Trials()
	if top[1].Shard != 18 || top[2].Shard != -1 || top[2].DurUS != 18 {
		t.Fatalf("tied trial not kept behind the earlier one: %+v", top[:3])
	}
	if top[ExemplarTopK-1].DurUS != want[ExemplarTopK-2] {
		t.Fatalf("fastest kept trial %+v, want the old one dropped", top[ExemplarTopK-1])
	}
}

// TestExemplarStoreZeroValue: the zero value is an empty store that fills
// to ExemplarTopK trials and no further.
func TestExemplarStoreZeroValue(t *testing.T) {
	var s SlowTrials
	if got := s.Trials(); got != nil {
		t.Fatalf("empty store = %+v, want nil", got)
	}
	for i := 0; i < ExemplarTopK+5; i++ {
		s.Observe(Exemplar{DurUS: float64(i)})
	}
	if got := len(s.Trials()); got != ExemplarTopK {
		t.Fatalf("zero-value store kept %d, want %d", got, ExemplarTopK)
	}
}

// TestExemplarStoreFastPathRejectsBelowFloor: once the store is full, its
// fastest kept trial is the floor. A trial no slower than the floor is
// dropped by the one comparison Observe makes first; a slower one
// displaces the floor.
func TestExemplarStoreFastPathRejectsBelowFloor(t *testing.T) {
	var s SlowTrials
	for i := 0; i < ExemplarTopK; i++ {
		s.Observe(Exemplar{DurUS: float64(10 * (i + 1)), Shard: i})
	}
	full := s.Trials()
	s.Observe(Exemplar{DurUS: 5, Shard: -1})
	s.Observe(Exemplar{DurUS: 10, Shard: -1})
	if got := s.Trials(); !reflect.DeepEqual(got, full) {
		t.Fatalf("a trial at or below the floor changed the store: %+v", got)
	}
	s.Observe(Exemplar{DurUS: 15, Shard: -1})
	top := s.Trials()
	if last := top[ExemplarTopK-1]; last.DurUS != 15 || last.Shard != -1 {
		t.Fatalf("fastest kept trial %+v, want the 15us trial", last)
	}
	if top[ExemplarTopK-2].DurUS != 20 {
		t.Fatalf("second fastest kept trial %+v, want 20us", top[ExemplarTopK-2])
	}
}

// TestSlowTrialsAdd: folding per-flush SlowTrials keeps exactly what
// observing every trial into one would, which is how RunStats merges its
// workers' flushes.
func TestSlowTrialsAdd(t *testing.T) {
	var all, folded SlowTrials
	for f := 0; f < 5; f++ {
		var flush SlowTrials
		for i := 0; i < 30; i++ {
			e := Exemplar{DurUS: float64((i*7 + f*13) % 50), Shard: f, II: i}
			all.Observe(e)
			flush.Observe(e)
		}
		folded.Add(&flush)
	}
	if got, want := folded.Trials(), all.Trials(); !reflect.DeepEqual(got, want) {
		t.Fatalf("folded %+v\nobserved %+v", got, want)
	}
}

func durations(es []Exemplar) []float64 {
	out := make([]float64, len(es))
	for i, e := range es {
		out[i] = e.DurUS
	}
	return out
}
