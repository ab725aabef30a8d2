package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"chop/internal/core"
	"chop/internal/spec"
)

// exampleShardPlan plans the shard decomposition of the example spec the
// way a coordinator would, for the given heuristic letter.
func exampleShardPlan(t *testing.T, heuristic string, shards int) (json.RawMessage, core.ShardPlan, *spec.Problem) {
	t.Helper()
	f := spec.Example()
	f.Heuristic = heuristic
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	prob, err := spec.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := core.PredictPartitions(prob.Partitioning, prob.Config)
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	plan, err := core.PlanShards(prob.Partitioning, prob.Config, preds, prob.Heuristic, shards)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return raw, plan, prob
}

// awaitDone polls a run to a terminal state and fails unless it is done.
func awaitDone(t *testing.T, ts string, id string) RunStatus {
	t.Helper()
	c := &Client{Base: ts}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := c.Await(ctx, id, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("await %s: %v", id, err)
	}
	if st.State != StateDone {
		t.Fatalf("run %s finished %s: %s", id, st.State, st.Error)
	}
	return st
}

// decodeShardResponse reconstructs the typed response from the run
// result's generic JSON form, the way the coordinator does.
func decodeShardResponse(t *testing.T, result any) ShardResponse {
	t.Helper()
	blob, err := json.Marshal(result)
	if err != nil {
		t.Fatal(err)
	}
	var resp ShardResponse
	if err := json.Unmarshal(blob, &resp); err != nil {
		t.Fatalf("decode shard response: %v", err)
	}
	return resp
}

// TestShardJobExecutesAndMergesIdentical: submitting every planned shard
// through the API (split across two runs) and merging the responses is
// byte-identical to an in-process serial search, for both heuristics.
func TestShardJobExecutesAndMergesIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 2})
	for _, heuristic := range []string{"E", "I"} {
		raw, plan, prob := exampleShardPlan(t, heuristic, 4)
		if plan.Shards < 2 {
			t.Fatalf("%s: want >= 2 shards, got %d", heuristic, plan.Shards)
		}
		c := &Client{Base: ts.URL}
		done := make(map[int]*core.SearchResult)
		for half := 0; half < 2; half++ {
			var indices []int
			for si := 0; si < plan.Shards; si++ {
				if si%2 == half {
					indices = append(indices, si)
				}
			}
			body, _ := json.Marshal(ShardRequest{
				Spec: raw, Shards: plan.Shards, Indices: indices, Signature: plan.Signature,
			})
			st, err := c.Submit(context.Background(), SubmitSpec{Kind: "shard", Spec: body})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			st = awaitDone(t, ts.URL, st.ID)
			resp := decodeShardResponse(t, st.Result)
			if resp.Signature != plan.Signature || resp.Shards != plan.Shards {
				t.Fatalf("response geometry mismatch: %+v vs plan %+v", resp, plan)
			}
			for _, si := range indices {
				if resp.Results[si] == nil {
					t.Fatalf("missing result for shard %d", si)
				}
				done[si] = resp.Results[si]
			}
		}
		merged, err := core.MergeShardResults(prob.Heuristic, plan.Shards, done)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		scfg := prob.Config
		scfg.Workers = 1
		serial, _, err := core.Run(prob.Partitioning, scfg, prob.Heuristic)
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		want, _ := json.Marshal(serial)
		got, _ := json.Marshal(merged)
		if string(got) != string(want) {
			t.Fatalf("%s: API-transported merge diverged from serial", heuristic)
		}
	}
}

// TestShardJobRejectsSignatureMismatch: a coordinator/worker plan
// disagreement fails the run instead of contributing foreign shards.
func TestShardJobRejectsSignatureMismatch(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})
	raw, plan, _ := exampleShardPlan(t, "I", 0)
	body, _ := json.Marshal(ShardRequest{
		Spec: raw, Shards: plan.Shards, Indices: []int{0},
		Signature: "deadbeef" + plan.Signature[8:],
	})
	c := &Client{Base: ts.URL}
	st, err := c.Submit(context.Background(), SubmitSpec{Kind: "shard", Spec: body})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err = c.Await(ctx, st.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("await: %v", err)
	}
	if st.State != StateFailed {
		t.Fatalf("mismatched signature produced state %s", st.State)
	}
}

// TestShardJobValidation: malformed shard submissions are 400s at the
// door, not failed runs.
func TestShardJobValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxConcurrent: 1})
	raw, plan, _ := exampleShardPlan(t, "I", 0)
	bad := []string{
		`{}`,
		fmt.Sprintf(`{"spec": %s, "shards": 0, "indices": [0]}`, raw),
		fmt.Sprintf(`{"spec": %s, "shards": %d, "indices": []}`, raw, plan.Shards),
		fmt.Sprintf(`{"spec": %s, "shards": %d, "indices": [%d]}`, raw, plan.Shards, plan.Shards),
	}
	for i, b := range bad {
		body := fmt.Sprintf(`{"kind": "shard", "spec": %s}`, b)
		_, resp := postRun(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d accepted with %d", i, resp.StatusCode)
		}
	}
}
