package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chop/internal/chip"
	"chop/internal/core"
	"chop/internal/dfg"
	"chop/internal/lib"
	"chop/internal/obs"
	"chop/internal/serve"
	"chop/internal/spec"
)

const (
	// serveClients closed-loop clients share serveClients connections: one
	// per CPU of the machine the numbers in README.md come from.
	serveClients = 2
	// serveRound is the job count one server instance takes before the run
	// starts a fresh one. The registry keeps every finished run with its
	// trace ring, so heap grows with jobs; a fixed round keeps peak RSS
	// and GC cost independent of how long the run measures. 300 jobs are
	// 25 whole passes over the mix.
	serveRound = 300
)

// mixGraphs are benchkit's six benchmark-graph workloads.
var mixGraphs = []struct {
	name  string
	build func() *dfg.Graph
	parts int
}{
	{"ar/p2", func() *dfg.Graph { return dfg.ARLatticeFilter(16) }, 2},
	{"ewf/p2", func() *dfg.Graph { return dfg.EllipticWaveFilter(16) }, 2},
	{"ewf/p3", func() *dfg.Graph { return dfg.EllipticWaveFilter(16) }, 3},
	{"fir24/p2", func() *dfg.Graph { return dfg.FIR(24, 16) }, 2},
	{"fir48/p3", func() *dfg.Graph { return dfg.FIR(48, 16) }, 3},
	{"diffeq/p2", func() *dfg.Graph { return dfg.DiffEq(16) }, 2},
}

// mixJob is one eval spec of the mix with its in-process reference.
type mixJob struct {
	name string
	spec json.RawMessage
	prob *spec.Problem
	want serve.EvalResult
}

// serveMix builds the twelve eval specs (six graphs x heuristics E and I,
// extended library, 90 us bounds) and their core.Run references.
func serveMix() ([]*mixJob, error) {
	var mix []*mixJob
	for _, mg := range mixGraphs {
		for _, h := range []string{"E", "I"} {
			raw, err := json.Marshal(specFile(mg.build(), mg.parts, h))
			if err != nil {
				return nil, err
			}
			prob, err := spec.Parse(raw)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", mg.name, h, err)
			}
			mix = append(mix, &mixJob{name: mg.name + "/" + h, spec: raw, prob: prob})
		}
	}
	return mix, nil
}

func specFile(g *dfg.Graph, parts int, heuristic string) *spec.File {
	f := &spec.File{
		Graph:        spec.GraphSpec{Name: g.Name},
		Library:      lib.ExtendedLibrary(),
		Chips:        chip.NewUniformSet(parts, chip.MOSISPackages()[1], 4),
		MainClockNS:  300,
		DatapathMult: 10,
		TransferMult: 1,
		Perf:         spec.ConstraintSpec{Bound: 90000, MinProb: 1},
		Delay:        spec.ConstraintSpec{Bound: 90000, MinProb: 0.8},
		Heuristic:    heuristic,
	}
	for _, n := range g.Nodes {
		f.Graph.Nodes = append(f.Graph.Nodes, spec.NodeSpec{Name: n.Name, Op: n.Op, Width: n.Width, Mem: n.Mem})
	}
	for _, e := range g.Edges {
		f.Graph.Edges = append(f.Graph.Edges, [2]string{g.Nodes[e.From].Name, g.Nodes[e.To].Name})
	}
	for pi, set := range dfg.LevelPartitions(g, parts) {
		var names []string
		for _, id := range set {
			names = append(names, g.Nodes[id].Name)
		}
		f.Partitions = append(f.Partitions, names)
		f.PartChip = append(f.PartChip, pi)
	}
	return f
}

// reference computes the result an eval job must return, in process.
func (j *mixJob) reference() error {
	cfg := j.prob.Config
	cfg.Metrics = obs.NewMetrics()
	res, _, err := core.Run(j.prob.Partitioning, cfg, j.prob.Heuristic)
	if err != nil {
		return err
	}
	p := j.prob.Partitioning
	j.want = serve.EvalResult{
		Graph: p.Graph.Name, Partitions: p.NumParts(), Chips: len(p.Chips.Chips),
		Heuristic: j.prob.Heuristic.String(), Trials: res.Trials,
		FeasibleTrials: res.FeasibleTrials, Feasible: len(res.Best) > 0,
	}
	for _, b := range res.Best {
		j.want.Best = append(j.want.Best, serve.DesignSummary{
			IIMain: b.IIMain, DelayMain: b.DelayMain, ClockNS: b.Clock.ML,
			PerfNS: b.PerfNS.ML, DelayNS: b.DelayNS.ML,
		})
	}
	for k, v := range cfg.Metrics.Snapshot().Counters {
		if name, ok := strings.CutPrefix(k, "core.reject."); ok {
			if j.want.Rejects == nil {
				j.want.Rejects = map[string]int64{}
			}
			j.want.Rejects[name] = v
		}
	}
	return nil
}

// check compares a job's result with the reference; the elapsed time is
// the only field allowed to differ.
func (j *mixJob) check(st serve.RunStatus) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("%s: run %s ended %s: %s", j.name, st.ID, st.State, st.Error)
	}
	data, err := json.Marshal(st.Result)
	if err != nil {
		return err
	}
	var got serve.EvalResult
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("%s: result: %w", j.name, err)
	}
	got.ElapsedMS = 0
	if !reflect.DeepEqual(got, j.want) {
		return fmt.Errorf("%s: result %+v, reference %+v", j.name, got, j.want)
	}
	return nil
}

// server is one in-process serve.New with default Options on a loopback
// listener, and the HTTP client the load uses.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	httpc  *http.Client
	client *serve.Client
}

// startServer starts a server and primes its predictor cache with one pass
// over the mix, so the measured jobs' predictions are all cache hits.
func startServer(mix []*mixJob) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:    serve.New(serve.Options{}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		httpc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveClients,
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	s.client = &serve.Client{Base: s.base, HTTP: s.httpc}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	buf := make([]byte, 64<<10)
	for _, j := range mix {
		js := s.job(context.Background(), j, buf, nil)
		if js.err == nil {
			js.err = j.check(js.final)
		}
		if js.err != nil {
			s.stop()
			return nil, fmt.Errorf("priming: %w", js.err)
		}
	}
	return s, nil
}

// stop drains the registry and closes the listener, waiting for both.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.httpc.CloseIdleConnections()
	return err
}

// jobSample is one job as its client saw it.
type jobSample struct {
	mix                 int
	submit, fetch       time.Duration
	total               time.Duration
	doneAt              time.Time
	final               serve.RunStatus
	refetched, rejected bool
	err                 error
}

var doneLine = []byte("event: done")

// job submits one eval, waits for the run's SSE done event and GETs the
// result. A non-nil parent span traces the three calls.
func (s *server) job(ctx context.Context, j *mixJob, buf []byte, parent *obs.Span) (js jobSample) {
	t0 := time.Now()
	var st serve.RunStatus
	sp := parent.Child("serve.Client.Submit")
	st, js.err = s.client.Submit(ctx, serve.SubmitSpec{Kind: "eval", Spec: j.spec})
	sp.End()
	js.submit = time.Since(t0)
	if js.err != nil {
		var ae *serve.APIError
		js.rejected = errors.As(js.err, &ae) &&
			(ae.Status == http.StatusTooManyRequests || ae.Status == http.StatusServiceUnavailable)
		return js
	}
	sp = parent.Child("serve.events")
	js.err = s.awaitDone(ctx, st.ID, buf)
	sp.End()
	js.doneAt = time.Now()
	if js.err != nil {
		return js
	}
	sp = parent.Child("serve.Client.Get")
	js.final, js.err = s.client.Get(ctx, st.ID)
	// The registry closes the run's event ring a moment before it stamps
	// the final state, so a fast client can see the run still running.
	for wait := 50 * time.Microsecond; js.err == nil && !js.final.State.Terminal(); wait = min(2*wait, 2*time.Millisecond) {
		js.refetched = true
		time.Sleep(wait)
		js.final, js.err = s.client.Get(ctx, st.ID)
	}
	sp.End()
	end := time.Now()
	js.fetch = end.Sub(js.doneAt)
	js.total = end.Sub(t0)
	return js
}

// awaitDone reads the run's event stream to its end and reports whether it
// carried the done event.
func (s *server) awaitDone(ctx context.Context, id string, buf []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/api/v1/runs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := s.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(buf, 1<<20)
	done := false
	for sc.Scan() {
		if bytes.Equal(sc.Bytes(), doneLine) {
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", id, err)
	}
	if !done {
		return fmt.Errorf("events %s: stream ended without done", id)
	}
	return nil
}

// jobOrder yields job indices into the mix: whole passes over it, each in
// a seed-driven order.
type jobOrder struct {
	rng *rand.Rand
	n   int
}

func (o *jobOrder) next(count int) []int {
	var out []int
	for len(out) < count {
		out = append(out, o.rng.Perm(o.n)...)
	}
	return out[:count]
}

// round runs the jobs through serveClients closed-loop clients. With a
// probe, each job is a root span over its three calls.
func (s *server) round(mix []*mixJob, order []int, p *probe) []jobSample {
	out := make([]jobSample, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				var sp *obs.Span
				if p != nil {
					sp = p.tracer.Span("serve.job", obs.F("mix", mix[order[i]].name))
				}
				out[i] = s.job(context.Background(), mix[order[i]], buf, sp)
				out[i].mix = order[i]
				sp.End()
			}
		}()
	}
	wg.Wait()
	return out
}

// checkJobs books every job into the report and returns how many results
// had to be fetched twice.
func checkJobs(mix []*mixJob, jobs []jobSample, r *report) (refetched int) {
	for _, js := range jobs {
		r.Attempted++
		err := js.err
		if err == nil {
			err = mix[js.mix].check(js.final)
		}
		if err != nil {
			r.fail(1, "%v", err)
		}
		if js.refetched {
			refetched++
		}
	}
	return refetched
}

// resultTrials reads an eval result's trial count.
func resultTrials(st serve.RunStatus) int {
	m, _ := st.Result.(map[string]any)
	n, _ := m["trials"].(float64)
	return int(n)
}

func prepareMix() ([]*mixJob, error) {
	mix, err := serveMix()
	if err != nil {
		return nil, err
	}
	for _, j := range mix {
		if err := j.reference(); err != nil {
			return nil, fmt.Errorf("%s reference: %w", j.name, err)
		}
	}
	return mix, nil
}

// runServe is the untraced serve run: rounds of serveRound jobs, each on a
// freshly started and primed server, until the run's seconds are spent.
// Starting and priming a server is the set-up; the rounds are measured.
func runServe(o options, r *report) {
	mix, err := prepareMix()
	if err != nil {
		r.fail(1, "%v", err)
		return
	}
	order := &jobOrder{rng: rand.New(rand.NewSource(o.seed)), n: len(mix)}
	budget := time.Duration(o.seconds) * time.Second
	var t tally
	refetched := 0
	for start := time.Now(); time.Since(start) < budget; {
		t0 := time.Now()
		s, err := startServer(mix)
		t.setups = append(t.setups, time.Since(t0).Seconds())
		if err != nil {
			r.fail(1, "server: %v", err)
			return
		}
		var jobs []jobSample
		d, _ := t.measureOp(func() error {
			jobs = s.round(mix, order.next(serveRound), nil)
			return nil
		})
		for _, js := range jobs {
			if js.err == nil {
				t.lat = append(t.lat, ms(js.total))
				t.trials += resultTrials(js.final)
			}
		}
		refetched += checkJobs(mix, jobs, r)
		if err := s.stop(); err != nil {
			r.fail(1, "server stop: %v", err)
		}
		t.cal.after(d)
	}
	t.fill(r)
	if refetched > 0 {
		r.note("%d results read back still running after the done event and were fetched again", refetched)
	}
}

// traceServe is the traced serve run: two untraced rounds, the second the
// overhead baseline (a process's first round also pays for backing its
// heap), then a traced round whose server-side layers are read from the
// registry's metrics and each finished run's phase accounting.
func traceServe(o options, r *report) {
	mix, err := prepareMix()
	if err != nil {
		r.fail(1, "%v", err)
		return
	}
	order := &jobOrder{rng: rand.New(rand.NewSource(o.seed)), n: len(mix)}
	var plain []jobSample
	for i := 0; i < 2; i++ {
		s, err := startServer(mix)
		if err != nil {
			r.fail(1, "server: %v", err)
			return
		}
		plain = s.round(mix, order.next(serveRound), nil)
		checkJobs(mix, plain, r)
		if err := s.stop(); err != nil {
			r.fail(1, "server stop: %v", err)
		}
	}

	p := newProbe("serve")
	l := newLayerSet()
	s, err := startServer(mix)
	if err != nil {
		r.fail(1, "server: %v", err)
		return
	}
	defer func() {
		if err := s.stop(); err != nil {
			r.fail(1, "server stop: %v", err)
		}
	}()
	reg := s.srv.Registry()
	var heap0, heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap0)
	before := reg.Metrics().Snapshot()
	jobs := s.round(mix, order.next(serveRound), p)
	w := window(before, reg.Metrics().Snapshot())
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	if n := checkJobs(mix, jobs, r); n > 0 {
		r.note("%d results read back still running after the done event and were fetched again", n)
	}

	n := len(jobs)
	var ph phaseTotals
	var submit, queue, exec, notify, fetch []float64
	var events, rejected int
	var calls []predictCall
	for _, js := range jobs {
		if js.rejected {
			rejected++
		}
		if js.err != nil || js.final.Started == nil || js.final.Finished == nil {
			continue
		}
		submit = append(submit, ms(js.submit))
		queue = append(queue, ms(js.final.Started.Sub(js.final.Submitted)))
		exec = append(exec, ms(js.final.Finished.Sub(*js.final.Started)))
		// Finished is stamped after the event ring closes, so the done
		// event can arrive first; such a job counts as no delay.
		notify = append(notify, max(0, ms(js.doneAt.Sub(*js.final.Finished))))
		fetch = append(fetch, ms(js.fetch))
		l.opMS = append(l.opMS, ms(js.total))
		events += js.final.TraceEvents + int(js.final.TraceDropped)
		if run, ok := reg.Get(js.final.ID); ok {
			ph.add(run.Stats().Snapshot().Phases)
		}
		j := mix[js.mix]
		calls = append(calls, predictCalls(j.prob.Partitioning, j.prob.Config)...)
	}
	l.predictor(w, w.h["core.predict_partitions_us"].Sum/1e6, n)
	l.search(w, ph, w.h["core.search_us"].Sum/1e6, n)
	l.set("serve.submit_ms_p50", median(submit), len(submit))
	l.set("serve.queue_ms_p50", median(queue), len(queue))
	l.set("serve.exec_ms_p50", median(exec), len(exec))
	l.set("serve.notify_ms_p50", median(notify), len(notify))
	l.set("serve.fetch_ms_p50", median(fetch), len(fetch))
	l.set("serve.rejected", float64(rejected), n)
	l.set("obs.trace_events_per_job", ratio(float64(events), float64(len(submit))), len(submit))
	l.set("serve.retained_mb_per_job", (float64(heap1.HeapInuse)-float64(heap0.HeapInuse))/float64(n)/1e6, n)
	l.repeatShare(calls)
	// The layer probes run on the mix's longest search.
	big := mix[0]
	for _, j := range mix {
		if j.want.Trials > big.want.Trials {
			big = j
		}
	}
	preds, err := core.PredictPartitions(big.prob.Partitioning, big.prob.Config)
	if err == nil {
		err = l.problemProbes(p, searchProblem{big.prob.Partitioning, big.prob.Config, preds, big.prob.Heuristic}, o.seed)
	}
	if err != nil {
		r.fail(1, "layer probes: %v", err)
	}
	var plainMS []float64
	for _, js := range plain {
		plainMS = append(plainMS, ms(js.total))
	}
	l.set("trace_overhead_pct", 100*(median(l.opMS)/median(plainMS)-1), len(l.opMS))
	finishTrace(p, l, o, r)
}
