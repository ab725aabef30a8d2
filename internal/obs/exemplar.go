package obs

// Exemplar is one recorded slow trial: its shard, initiation interval and
// feasibility verdict, the context to find it again in its search (the
// trace records no single trial).
type Exemplar struct {
	// DurUS is the trial's integration latency in microseconds.
	DurUS float64 `json:"durUS"`
	// Shard is the shard the trial ran in (-1: serial / unknown).
	Shard int `json:"shard"`
	// II is the initiation interval of the examined partitioning.
	II int `json:"ii"`
	// Feasible is the trial's constraint verdict; Reason the first
	// violated constraint when infeasible.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
}

// ExemplarTopK selects how many slow-trial exemplars a run retains.
const ExemplarTopK = 8

// SlowTrials keeps the ExemplarTopK slowest trials offered to it, slowest
// first, in a fixed array: plain fields with one writer, no lock and no
// allocation. A search worker's recorder keeps one per flush and RunStats
// folds it into the run's own. The zero value is empty.
type SlowTrials struct {
	n   int
	top [ExemplarTopK]Exemplar
}

// Observe offers one trial; it is kept only if it is slower than the
// fastest kept trial or the array is not yet full. Equal durations keep
// the earlier trial ahead.
func (s *SlowTrials) Observe(e Exemplar) {
	if s.n == len(s.top) {
		if e.DurUS <= s.top[s.n-1].DurUS {
			return
		}
	} else {
		s.n++
	}
	i := s.n - 1
	for ; i > 0 && s.top[i-1].DurUS < e.DurUS; i-- {
		s.top[i] = s.top[i-1]
	}
	s.top[i] = e
}

// Add offers every trial o keeps.
func (s *SlowTrials) Add(o *SlowTrials) {
	for _, e := range o.top[:o.n] {
		s.Observe(e)
	}
}

// Trials returns a copy of the kept trials, slowest first (nil when
// empty).
func (s *SlowTrials) Trials() []Exemplar {
	if s.n == 0 {
		return nil
	}
	return append([]Exemplar(nil), s.top[:s.n]...)
}
