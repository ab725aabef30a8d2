package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Exemplar is one recorded slow trial: enough context (shard, initiation
// interval, feasibility verdict) to find the trial in a full trace without
// shipping the trace itself.
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

// ExemplarStore retains the top-k slowest observations. The common case —
// a trial faster than the current k-th slowest — is rejected with a single
// atomic load; only genuine candidates take the mutex, so the store adds
// no contention to a hot search loop. The zero value is ready to use and
// keeps ExemplarTopK entries.
type ExemplarStore struct {
	// floor is the math.Float64bits of the current admission threshold:
	// 0 until the store fills, then the smallest retained duration.
	floor atomic.Uint64
	mu    sync.Mutex
	top   []Exemplar // sorted slowest-first
	k     int
}

// NewExemplarStore returns a store retaining the k slowest observations
// (k <= 0 selects ExemplarTopK).
func NewExemplarStore(k int) *ExemplarStore {
	if k <= 0 {
		k = ExemplarTopK
	}
	return &ExemplarStore{k: k}
}

// Observe offers one trial; it is retained only if it ranks among the k
// slowest seen so far.
func (s *ExemplarStore) Observe(e Exemplar) {
	if s == nil {
		return
	}
	if e.DurUS <= math.Float64frombits(s.floor.Load()) {
		return // fast path: not slower than the current k-th slowest
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	k := s.k
	if k <= 0 {
		k = ExemplarTopK
	}
	// Re-check under the lock: the floor may have risen since the load.
	if len(s.top) == k && e.DurUS <= s.top[len(s.top)-1].DurUS {
		return
	}
	// Insert in place (after equal durations), dropping the fastest entry
	// once full: no allocation after the first admission.
	if s.top == nil {
		s.top = make([]Exemplar, 0, k)
	}
	if len(s.top) < k {
		s.top = append(s.top, e)
	}
	i := len(s.top) - 1
	for ; i > 0 && s.top[i-1].DurUS < e.DurUS; i-- {
		s.top[i] = s.top[i-1]
	}
	s.top[i] = e
	if len(s.top) == k {
		s.floor.Store(math.Float64bits(s.top[len(s.top)-1].DurUS))
	}
}

// Top returns the retained exemplars, slowest first (a copy).
func (s *ExemplarStore) Top() []Exemplar {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.top) == 0 {
		return nil
	}
	out := make([]Exemplar, len(s.top))
	copy(out, s.top)
	return out
}
