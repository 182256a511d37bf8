package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ivn/internal/engine"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/rng"
	"ivn/internal/service"
)

// The service workload: an in-process service.Manager (one worker, one
// trial worker per job) behind service.NewHandler on a loopback server,
// driven by a closed loop of svcClients clients on keep-alive connections.
// A client's round is roundWrites blocks of blockReads cache hits then one
// cold job; a third of the cold jobs ask for ?shards=2.
const (
	svcClients  = 2
	blockReads  = 9
	roundWrites = 15
	roundReads  = blockReads * roundWrites
	// pollEvery is how long a client waits between status polls of a
	// cold job.
	pollEvery = time.Millisecond
	// opHeader carries the request id to the handler wrapper of the traced
	// run, so server time can be joined with client time.
	opHeader = "X-Perfbench-Op"
)

// coldIDs are the experiments cold jobs draw from.
var coldIDs = []string{"fig12", "fig13a", "invivo", "ablation-averaging", "ablation-miller"}

// request is one client request.
type request struct {
	spec   runspec.Spec
	body   []byte
	cold   bool
	shards int
}

// readSpecs are the figures specs loaded into the cache at set-up.
func readSpecs(seed uint64) []runspec.Spec {
	var specs []runspec.Spec
	for _, id := range batchIDs("figures") {
		specs = append(specs, runspec.Spec{Experiment: id, Seed: seed, Quick: true})
	}
	return specs
}

// clientRounds generates a client's request list up front from the
// workload seed. Reads cycle through a seeded permutation of the cached
// specs and a cold job follows every blockReads of them, so between two
// reads of one spec each client inserts at most a few new cache entries:
// with the default 64-entry cache no read can miss. Each round's cold
// jobs are every cold experiment three times in a seeded order, one of
// the three sharded, each at a fresh seed.
func clientRounds(seed uint64, client, rounds int, reads []runspec.Spec, used map[uint64]bool) ([][]request, error) {
	r := rng.New(seed).Split(fmt.Sprintf("client-%d", client))
	perm := make([]int, len(reads))
	for i := range perm {
		perm[i] = i
	}
	shuffle(r, perm)
	next := 0
	out := make([][]request, rounds)
	for k := range out {
		writes := make([]int, roundWrites)
		for i := range writes {
			writes[i] = i
		}
		shuffle(r, writes)
		round := make([]request, 0, roundReads+roundWrites)
		for _, w := range writes {
			for i := 0; i < blockReads; i++ {
				round = append(round, request{spec: reads[perm[next%len(perm)]]})
				next++
			}
			s := r.Uint64()
			for used[s] || s == seed {
				s = r.Uint64()
			}
			used[s] = true
			req := request{spec: runspec.Spec{Experiment: coldIDs[w%len(coldIDs)], Seed: s, Quick: true}, cold: true}
			if w < len(coldIDs) {
				req.shards = 2
			}
			round = append(round, req)
		}
		for i := range round {
			b, err := json.Marshal(round[i].spec)
			if err != nil {
				return nil, err
			}
			round[i].body = b
		}
		out[k] = round
	}
	return out, nil
}

// shuffle permutes xs with r (Fisher–Yates).
func shuffle(r *rng.Rand, xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// svc is one running service instance and its loopback server.
type svc struct {
	m    *service.Manager
	srv  *http.Server
	base string
	done chan error
}

func startService(tr *tracer) (*svc, error) {
	m, err := service.New(service.Config{Workers: 1, MaxParallel: 1})
	if err != nil {
		return nil, err
	}
	h := service.NewHandler(m)
	if tr != nil {
		h = timedHandler{h: h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = m.Close(context.Background())
		return nil, err
	}
	s := &svc{m: m, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and drains the manager, waiting for both.
func (s *svc) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if merr := s.m.Close(ctx); merr != nil && err == nil {
		err = merr
	}
	return err
}

// timedHandler is the traced run's wrapper around the service handler: a
// root span per HTTP call, keyed by the client's request id.
type timedHandler struct {
	h  http.Handler
	tr *tracer
}

func (th timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	th.h.ServeHTTP(w, r)
	op, _ := strconv.Atoi(r.Header.Get(opHeader))
	th.tr.add("service", "service.handler", start, time.Now(), int32(op))
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// status is the part of the status document the client reads.
type status struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
}

func (c *client) send(method, path string, body []byte, op int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if c.tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, b, err
}

// reqResult is the client's record of one request.
type reqResult struct {
	ms        float64
	cached    bool
	polls     int
	queueWait float64 // ms from submission until the job left the queue
	result    []byte
	// sum is the sha256 of a cold job's result, kept for the check after
	// the window once result itself has been dropped.
	sum [sha256.Size]byte
	// match records whether a hit's result equalled its reference.
	match bool
	err   error
}

// do submits one request and waits for its result bytes.
func (c *client) do(req request, op int) reqResult {
	var rr reqResult
	start := time.Now()
	path := "/v1/runs"
	if req.shards > 0 {
		path += "?shards=" + strconv.Itoa(req.shards)
	}
	code, b, err := c.send(http.MethodPost, path, req.body, op)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST %s: HTTP %d: %s", path, code, bytes.TrimSpace(b))
	}
	var st status
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err != nil {
		rr.err = err
		return rr
	}
	rr.cached = st.Cached
	submitted := time.Now()
	for st.State == "queued" || st.State == "running" {
		time.Sleep(pollEvery)
		rr.polls++
		code, b, err = c.send(http.MethodGet, "/v1/runs/"+st.ID, nil, op)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("GET status: HTTP %d", code)
		}
		if err == nil {
			err = json.Unmarshal(b, &st)
		}
		if err != nil {
			rr.err = err
			return rr
		}
		if st.State != "queued" && rr.queueWait == 0 {
			rr.queueWait = msSince(submitted)
		}
	}
	if st.State != "done" {
		rr.err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
		return rr
	}
	code, b, err = c.send(http.MethodGet, "/v1/runs/"+st.ID+"/result", nil, op)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET result: HTTP %d", code)
	}
	rr.ms = msSince(start)
	rr.result = b
	rr.err = err
	return rr
}

// reference renders the result a job must return: engine.RenderJSON of
// runspec.Run for the same spec, computed outside the timed window. t,
// when non-nil, gets a root span around each call; reference may run on
// several goroutines at once.
func reference(t *tracer, spec runspec.Spec) ([]byte, error) {
	t0 := time.Now()
	res, _, err := runspec.Run(context.Background(), single, spec, nil)
	t1 := time.Now()
	t.add("runspec", "runspec.Run", t0, t1, -1)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = engine.RenderJSON(res, &buf)
	t.add("engine", "engine.RenderJSON", t1, time.Now(), -1)
	return buf.Bytes(), err
}

// coldDigests computes the reference digest of every cold job that
// returned a result, keyed by client and request index. The window is
// over, so it uses both cores.
func coldDigests(tr *tracer, logs []clientLog) (map[[2]int][sha256.Size]byte, error) {
	var specs []runspec.Spec
	var at [][2]int
	for ci, lg := range logs {
		for i, req := range lg.reqs {
			if req.cold && lg.res[i].err == nil {
				specs = append(specs, req.spec)
				at = append(at, [2]int{ci, i})
			}
		}
	}
	sums := make([][sha256.Size]byte, len(specs))
	err := engine.ForEachCtx(context.Background(), engine.Limits{MaxParallel: 2}, len(specs), func(k int) error {
		b, err := reference(tr, specs[k])
		if err != nil {
			return fmt.Errorf("reference %s seed %d: %w", specs[k].Experiment, specs[k].Seed, err)
		}
		sums[k] = sha256.Sum256(b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[[2]int][sha256.Size]byte, len(specs))
	for k, key := range at {
		out[key] = sums[k]
	}
	return out, nil
}

// clientLog is one client's record of the window.
type clientLog struct {
	roundMs []float64
	reqs    []request
	res     []reqResult
}

// setUpService starts a service, computes the read references and loads
// every read spec into the cache through the HTTP API, checking each
// result.
func setUpService(opt options, out *outcome, tr *tracer, reads []runspec.Spec) (*svc, [][]byte, error) {
	refs := make([][]byte, len(reads))
	for i, spec := range reads {
		b, err := reference(nil, spec)
		if err != nil {
			return nil, nil, err
		}
		refs[i] = b
	}
	if opt.tamper != "" {
		for i, spec := range reads {
			if spec.Experiment == opt.tamper {
				c := append([]byte(nil), refs[i]...)
				c[len(c)/2] ^= 1
				refs[i] = c
			}
		}
	}
	bodies := make([][]byte, len(reads))
	for i, spec := range reads {
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	s, err := startService(tr)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(s.base, nil)
	defer c.close()
	for i, spec := range reads {
		body := bodies[i]
		out.attempted++
		rr := c.do(request{spec: spec, body: body}, -1)
		switch {
		case rr.err != nil:
			out.fail("pre-warm %s: %v", spec.Experiment, rr.err)
		case rr.cached:
			out.fail("pre-warm %s was already cached", spec.Experiment)
		case !bytes.Equal(rr.result, refs[i]):
			out.fail("pre-warm %s: result differs from runspec.Run", spec.Experiment)
		}
	}
	return s, refs, nil
}

// runService runs the service workload.
func runService(opt options) (_ *outcome, err error) {
	out := &outcome{raw: map[string]any{}}
	reads := readSpecs(opt.seed)
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}

	var s *svc
	defer func() {
		if s != nil {
			if serr := s.stop(); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	var refs [][]byte
	var setupS []float64
	var prewarmTrials int64 = -1
	for i := 0; i < opt.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = procStart
		}
		s, refs, err = setUpService(opt, out, tr, reads)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		trials := s.m.Metrics().Sched.Trials.Load()
		if prewarmTrials >= 0 && trials != prewarmTrials {
			out.fail("pre-warm ran %d trials, an earlier one %d", trials, prewarmTrials)
		}
		prewarmTrials = trials
		if i < opt.setups-1 {
			err = s.stop()
			s = nil
			if err != nil {
				return nil, err
			}
		}
	}
	refOf := map[string][]byte{}
	for i, spec := range reads {
		refOf[spec.Experiment] = refs[i]
	}

	rounds := int(10*opt.seconds) + 4
	used := map[uint64]bool{}
	lists := make([][][]request, svcClients)
	for c := range lists {
		l, err := clientRounds(opt.seed, c, rounds, reads, used)
		if err != nil {
			return nil, err
		}
		lists[c] = l
	}
	if tr != nil {
		tr.reset()
	}

	met := s.m.Metrics()
	before := snapshotMetrics(met)
	logs := make([]clientLog, svcClients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(opt.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for ci := 0; ci < svcClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := newClient(s.base, tr)
			defer c.close()
			lg := &logs[ci]
			for ri, round := range lists[ci] {
				if ri > 0 && !time.Now().Before(deadline) {
					break
				}
				rs := time.Now()
				for _, req := range round {
					op := ci*10_000_000 + len(lg.reqs)
					if tr != nil {
						// The spec is valid (set-up or the cache ran it), so
						// Key cannot fail; only its cost is wanted here.
						ks := time.Now()
						_, _ = req.spec.Key()
						tr.add("runspec", "runspec.Spec.Key", ks, time.Now(), int32(op))
					}
					rr := c.do(req, op)
					// Keep a verdict or a digest, not the bytes: thousands
					// of retained results would dominate the process's
					// memory.
					if req.cold {
						rr.sum = sha256.Sum256(rr.result)
					} else {
						rr.match = bytes.Equal(rr.result, refOf[req.spec.Experiment])
					}
					rr.result = nil
					lg.reqs = append(lg.reqs, req)
					lg.res = append(lg.res, rr)
				}
				lg.roundMs = append(lg.roundMs, msSince(rs))
			}
		}(ci)
	}
	wg.Wait()
	window := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	after := snapshotMetrics(met)

	// Check every result: hits against the pre-warm references, cold jobs
	// against a fresh runspec.Run, computed now, outside the window.
	coldWant, err := coldDigests(tr, logs)
	if err != nil {
		return nil, err
	}
	var hitMs, coldMs, shardMs, roundMs, queueMs []float64
	var polls, colds, nRounds int
	hitIdx := map[int]float64{}
	for ci, lg := range logs {
		roundMs = append(roundMs, lg.roundMs...)
		nRounds += len(lg.roundMs)
		for i, req := range lg.reqs {
			rr := lg.res[i]
			op := ci*10_000_000 + i
			out.attempted++
			lat := rr.ms
			if rr.err != nil {
				out.fail("client %d request %d (%s): %v", ci, i, req.spec.Experiment, rr.err)
				lat = math.Inf(1)
			} else if rr.cached == req.cold {
				out.fail("client %d request %d (%s): cached=%v, want %v", ci, i, req.spec.Experiment, rr.cached, !req.cold)
			} else {
				ok := rr.match
				if req.cold {
					ok = rr.sum == coldWant[[2]int{ci, i}]
				}
				if !ok {
					out.fail("client %d request %d (%s seed %d): result differs from runspec.Run", ci, i, req.spec.Experiment, req.spec.Seed)
				}
			}
			switch {
			case !req.cold:
				hitMs = append(hitMs, lat)
				hitIdx[op] = lat
			case req.shards > 0:
				shardMs = append(shardMs, lat)
				coldMs = append(coldMs, lat)
			default:
				coldMs = append(coldMs, lat)
			}
			if req.cold {
				colds++
				polls += rr.polls
				queueMs = append(queueMs, rr.queueWait)
			}
		}
	}
	jobs := len(hitMs) + len(coldMs)
	allocMiB := float64(ms1.TotalAlloc-ms0.TotalAlloc) / mib

	d := diffCounts(after, before)
	if d["shard_subjobs"] != int64(2*len(shardMs)) {
		out.fail("shard_subjobs advanced %d for %d sharded jobs", d["shard_subjobs"], len(shardMs))
	}
	if d["journal_recorded"] != d["journal_replayed"] {
		out.fail("journal recorded %d entries but replayed %d", d["journal_recorded"], d["journal_replayed"])
	}
	if d["cache_hits"] != int64(len(hitMs)) || d["cache_misses"] != int64(len(coldMs)) {
		out.fail("cache counted %d hits, %d misses for %d reads, %d writes", d["cache_hits"], d["cache_misses"], len(hitMs), len(coldMs))
	}

	out.raw["setup_s"] = setupS
	out.raw["round_ms"] = roundMs
	out.raw["hit_ms"] = rawMs(hitMs)
	out.raw["cold_ms"] = rawMs(coldMs)
	out.raw["sharded_ms"] = rawMs(shardMs)

	if opt.trace {
		tracedService(out, tr, s, logs[0].reqs, hitIdx, d, jobs, colds, polls, queueMs)
		set(out.layer, "trace.run_ms", median(roundMs))
		return out, tr.writeJSONL(tracePath(opt))
	}
	out.e2e = []metric{
		{name: "setup_s", unit: "s", value: median(setupS), n: len(setupS)},
		{name: "run_ms", unit: "ms", value: median(roundMs), n: len(roundMs)},
		{name: "alloc_mb_per_run", unit: "MiB", value: allocMiB / float64(nRounds), n: nRounds},
		{name: "peak_rss_mb", unit: "MiB", value: peakRSSMiB()},
	}
	out.report = []metric{
		{name: "jobs_per_s", unit: "1/s", value: float64(jobs) / window, n: jobs},
		{name: "hit_p50_ms", unit: "ms", value: percentile(hitMs, 50), n: len(hitMs)},
		{name: "hit_p90_ms", unit: "ms", value: percentile(hitMs, 90), n: len(hitMs)},
		{name: "cold_p50_ms", unit: "ms", value: percentile(coldMs, 50), n: len(coldMs)},
		{name: "cold_p90_ms", unit: "ms", value: percentile(coldMs, 90), n: len(coldMs)},
		{name: "sharded_p50_ms", unit: "ms", value: percentile(shardMs, 50), n: len(shardMs)},
		{name: "alloc_kb_per_job", unit: "KiB", value: allocMiB * 1024 / float64(jobs), n: jobs},
	}
	out.counts = []metric{
		{name: "prewarm.trials", unit: "count", value: float64(prewarmTrials)},
		{name: "hits_per_round", unit: "count", value: roundReads},
		{name: "cold_per_round", unit: "count", value: roundWrites},
		{name: "sharded_per_round", unit: "count", value: float64(len(coldIDs))},
	}
	out.raw["rounds"] = nRounds
	out.raw["service_counters"] = d
	return out, nil
}

// rawMs copies request latencies for the raw samples, writing a failed
// request's infinite latency as -1 (JSON has no infinity).
func rawMs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if math.IsInf(x, 0) {
			x = -1
		}
		out[i] = x
	}
	return out
}

// snapshotMetrics reads the service's counters.
func snapshotMetrics(m *service.Metrics) map[string]int64 {
	return map[string]int64{
		"cache_hits":       m.CacheHits.Load(),
		"cache_misses":     m.CacheMisses.Load(),
		"jobs_completed":   m.JobsCompleted.Load(),
		"jobs_failed":      m.JobsFailed.Load(),
		"jobs_submitted":   m.JobsSubmitted.Load(),
		"shard_subjobs":    m.ShardSubjobs.Load(),
		"journal_recorded": m.JournalRecorded.Load(),
		"journal_replayed": m.JournalReplayed.Load(),
		"trials":           m.Sched.Trials.Load(),
	}
}

// tracedService fills the per-layer metrics of the service workload, per
// completed job. The handler and key spans were taken during the window;
// the reference runs of the cold jobs gave the runspec.Run and
// engine.RenderJSON spans; here every read of client 0 is also submitted
// straight to the manager under a service.Manager.Submit span.
func tracedService(out *outcome, tr *tracer, s *svc, reqs0 []request, hitIdx map[int]float64, d map[string]int64, jobs, colds, polls int, queueMs []float64) {
	for _, req := range reqs0 {
		if req.cold {
			continue
		}
		id := tr.begin("service", "service.Manager.Submit")
		_, err := s.m.Submit(req.spec)
		tr.end(id)
		if err != nil {
			out.fail("direct submit %s: %v", req.spec.Experiment, err)
		}
	}
	units := float64(jobs)
	byLayer, byName := tr.aggregate()
	out.layer = layerMetrics(byLayer, byName, units, nil)

	// Join server time with client time per hit.
	handlerNs := map[int]int64{}
	tr.mu.Lock()
	var handlerTotal int64
	var handlerCalls int
	for _, sp := range tr.spans {
		if sp.Name == "service.handler" {
			handlerNs[int(sp.Trial)] += sp.End - sp.Start
			handlerTotal += sp.End - sp.Start
			handlerCalls++
		}
	}
	tr.mu.Unlock()
	var transport []float64
	for op, lat := range hitIdx {
		if h, ok := handlerNs[op]; ok && !math.IsInf(lat, 0) {
			transport = append(transport, lat*1e3-float64(h)/1e3)
		}
	}
	set(out.layer, "service.handler_us", float64(handlerTotal)/1e3/units)
	set(out.layer, "service.transport_us", median(transport))
	set(out.layer, "runspec.key_us", float64(byName["runspec.Spec.Key"])/1e3/units)
	set(out.layer, "engine.trials", float64(d["trials"])/units)
	set(out.layer, "engine.render_ms", float64(byName["engine.RenderJSON"])/1e6/units)
	set(out.layer, "engine.journal_entries", float64(d["journal_recorded"]+d["journal_replayed"])/units)
	if colds > 0 {
		set(out.layer, "service.queue_wait_ms", median(queueMs))
		set(out.layer, "service.polls_per_cold_job", float64(polls)/float64(colds))
	}
	if tot := d["cache_hits"] + d["cache_misses"]; tot > 0 {
		set(out.layer, "service.cache_hit_ratio", float64(d["cache_hits"])/float64(tot))
	}
	out.notes = append(out.notes, selfTimeNote)
	out.raw["jobs"] = jobs
	out.raw["handler_calls"] = handlerCalls
}
