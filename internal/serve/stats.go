package serve

import (
	"net/http"
	"strings"
	"time"

	"chop/internal/obs"
)

// This file is the HTTP surface of the run telemetry plane: the per-run
// and server-wide /stats snapshots that `chop top` polls. The underlying
// data is the run's obs.RunStats fold (published by the search workers at
// every recorder flush) and the server-wide metrics registry.

// CacheView is the prediction cache's position in a stats payload.
type CacheView struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hitRate"`
}

// ServerStats is the GET /api/v1/stats payload: supervision state (queue
// depth, worker occupancy), the shared prediction cache's hit rate, the
// resilience counters (retries, recovered panics, checkpoint activity)
// folded from the server-wide registry, and the live per-shard fold of
// every running run.
type ServerStats struct {
	Time time.Time `json:"time"`
	// QueueDepth is the queued-run backlog; MaxConcurrent the worker-pool
	// bound; RunsInFlight the currently executing runs; Occupancy their
	// ratio (1.0 = every worker busy).
	QueueDepth    int     `json:"queueDepth"`
	MaxConcurrent int     `json:"maxConcurrent"`
	RunsInFlight  int     `json:"runsInFlight"`
	Occupancy     float64 `json:"occupancy"`
	// Runs tallies all supervised runs by lifecycle state.
	Runs map[string]int `json:"runs"`
	// Cache is the server-wide prediction cache (absent when disabled).
	Cache *CacheView `json:"cache,omitempty"`
	// Resilience holds the resilience.* counters: recovered panics,
	// checkpoint saves/failures/resumes, retry activity.
	Resilience map[string]int64 `json:"resilience,omitempty"`
	// HTTPRequests totals served requests; TraceDropped the events bounded
	// run rings have discarded across finished merges.
	HTTPRequests int64 `json:"httpRequests,omitempty"`
	// Active carries the live search fold of every running run.
	Active []obs.RunStatsSnapshot `json:"active,omitempty"`
	// Tenants is the live admission accounting of every configured tenant
	// (absent on an open-access server): running/queued occupancy against
	// quotas plus the current token-bucket level.
	Tenants []TenantOccupancy `json:"tenants,omitempty"`
}

// serverStats assembles the /api/v1/stats payload.
func (s *Server) serverStats() ServerStats {
	st := ServerStats{
		Time:          time.Now(),
		QueueDepth:    s.reg.QueueLen(),
		MaxConcurrent: s.reg.MaxConcurrent(),
		Runs:          make(map[string]int),
	}
	for state, n := range s.reg.CountByState() {
		st.Runs[string(state)] = n
		if state == StateRunning {
			st.RunsInFlight = n
		}
	}
	if st.MaxConcurrent > 0 {
		st.Occupancy = float64(st.RunsInFlight) / float64(st.MaxConcurrent)
	}
	if cs, ok := s.reg.CacheStats(); ok {
		st.Cache = &CacheView{Hits: cs.Hits, Misses: cs.Misses, HitRate: cs.HitRate()}
	}
	snap := s.metrics.Snapshot()
	for k, v := range snap.Counters {
		if name, ok := strings.CutPrefix(k, "resilience."); ok {
			if st.Resilience == nil {
				st.Resilience = make(map[string]int64)
			}
			st.Resilience[name] = v
		}
	}
	st.HTTPRequests = snap.Counters["serve.http.requests"]
	st.Active = s.reg.ActiveRunStats()
	st.Tenants = s.reg.TenantOccupancies()
	return st
}

// handleStats serves the server-wide telemetry snapshot.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.serverStats())
}

// RunStatsPayload is the GET /api/v1/runs/{id}/stats payload: the run's
// status envelope plus the live per-shard search fold.
type RunStatsPayload struct {
	Run   RunStatus            `json:"run"`
	Stats obs.RunStatsSnapshot `json:"stats"`
}

// handleRunStats serves one run's current aggregate and shard table.
func (s *Server) handleRunStats(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, RunStatsPayload{
		Run:   run.Status(false),
		Stats: run.Stats().Snapshot(),
	})
}
