package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// TestServeRunStatsEndpoint: a completed run's /stats reports the final
// shard fold next to the status envelope, and its rejections are the ones
// the run's result carries. No stats stream is served: /stats/stream
// answers 404, as /stats does for an unknown run.
func TestServeRunStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})
	st, _ := postRun(t, ts, exampleSpecBody(t))
	waitHTTPState(t, ts.URL+"/api/v1/runs/"+st.ID, StateDone)

	var p RunStatsPayload
	resp := getJSON(t, ts.URL+"/api/v1/runs/"+st.ID+"/stats", &p)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if p.Run.ID != st.ID || p.Run.State != StateDone {
		t.Fatalf("run envelope wrong: %+v", p.Run)
	}
	if !p.Stats.Started || p.Stats.Trials == 0 {
		t.Fatalf("stats fold empty: %+v", p.Stats)
	}
	if !p.Stats.Done() {
		t.Fatalf("fold not done for a done run: %+v", p.Stats)
	}
	if len(p.Stats.ShardTable) == 0 || len(p.Stats.SlowTrials) == 0 {
		t.Fatalf("fold missing shard table or exemplars: %+v", p.Stats)
	}
	var sum int64
	for _, sh := range p.Stats.ShardTable {
		sum += sh.Trials
	}
	if sum != p.Stats.Trials {
		t.Fatalf("shard table sums to %d, aggregate %d", sum, p.Stats.Trials)
	}
	// The phase breakdown rides along: every run gets an accounter, so the
	// payload's phases block must attribute the search's trial time.
	if p.Stats.Phases == nil || p.Stats.Phases.Trials == 0 {
		t.Fatalf("phases block missing or empty: %+v", p.Stats.Phases)
	}
	if p.Stats.Phases.PhaseNS("integrate") <= 0 {
		t.Fatalf("no integrate time attributed: %+v", p.Stats.Phases)
	}
	var detail struct {
		Result EvalResult `json:"result"`
	}
	getJSON(t, ts.URL+"/api/v1/runs/"+st.ID, &detail)
	if len(p.Stats.Rejects) == 0 || !reflect.DeepEqual(p.Stats.Rejects, detail.Result.Rejects) {
		t.Fatalf("/stats rejects %v, result rejects %v; want equal and nonempty",
			p.Stats.Rejects, detail.Result.Rejects)
	}

	for _, path := range []string{"/api/v1/runs/nope/stats", "/api/v1/runs/" + st.ID + "/stats/stream"} {
		if resp := getJSON(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeServerStatsEndpoint: the server-wide snapshot reflects
// supervision state, the shared cache and the HTTP counters.
func TestServeServerStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 2})
	st, _ := postRun(t, ts, exampleSpecBody(t))
	waitHTTPState(t, ts.URL+"/api/v1/runs/"+st.ID, StateDone)

	var stats ServerStats
	resp := getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if stats.MaxConcurrent != 2 {
		t.Fatalf("maxConcurrent = %d, want 2", stats.MaxConcurrent)
	}
	if stats.Runs[string(StateDone)] != 1 {
		t.Fatalf("runs by state = %+v, want 1 done", stats.Runs)
	}
	if stats.Cache == nil {
		t.Fatal("shared prediction cache missing from stats")
	}
	if stats.HTTPRequests == 0 {
		t.Fatal("http request counter missing")
	}
	if stats.RunsInFlight != 0 || stats.Occupancy != 0 {
		t.Fatalf("idle server reports occupancy: %+v", stats)
	}
	if len(stats.Active) != 0 {
		t.Fatalf("idle server reports active runs: %+v", stats.Active)
	}
}

// TestServeServerStatsActiveRuns: the server-wide snapshot's active rows
// are exactly the running runs, in submission order, with finished runs
// in the registry before them.
func TestServeServerStatsActiveRuns(t *testing.T) {
	started := make(chan string, 2)
	jobs := blockingJobs(started)
	jobs["instant"] = rawJob(func(context.Context, json.RawMessage, JobContext) (any, error) {
		return "ok", nil
	})
	s, ts := newTestServer(t, Options{MaxConcurrent: 2, Jobs: jobs})
	for i := 0; i < 3; i++ {
		run, err := s.Registry().Submit("instant", nil)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, run, StateDone)
	}
	var want []string
	for i := 0; i < 2; i++ {
		run, err := s.Registry().Submit("block", nil)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, run.ID())
	}
	<-started
	<-started

	var stats ServerStats
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	var got []string
	for _, a := range stats.Active {
		got = append(got, a.Label)
	}
	if !slicesEqual(got, want) {
		t.Fatalf("active runs = %v, want %v", got, want)
	}
}
