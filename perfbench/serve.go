package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/server"
	"hmcsim/internal/server/api"
	"hmcsim/internal/store"
	"hmcsim/internal/workload"
)

const (
	// serveRequests is the request count of one cold job.
	serveRequests = 1024
	// hitShare is the share of submissions that repeat a finished spec.
	hitShare = 0.5
	// pollEvery is the client's wait between status polls.
	pollEvery = time.Millisecond
	// serveSetups is how many set-ups setup_s takes the median of,
	// after the one that creates the data directory's files.
	serveSetups = 31
	// warmupJobs run through the service before timing starts.
	warmupJobs = 40
	// jobsPerSecond scales the fixed job count of a pass to --seconds.
	// The work is fixed rather than the time so that the job table, the
	// journal and so the peak RSS do not grow with throughput.
	jobsPerSecond = 500
	// tracedJobs gives the traced pass minJobs cold jobs (about half are
	// hits) for the server-side p99s.
	tracedJobs = 2*minJobs + minJobs/4
)

// tenants is the two-tenant roster; the load has one client per tenant.
var tenants = []server.TenantConfig{
	{Name: "alpha", Key: "perfbench-alpha"},
	{Name: "beta", Key: "perfbench-beta"},
}

// service is one in-process durable job service on a loopback listener.
type service struct {
	dir    string
	st     *store.Store
	m      *server.Manager
	srv    *http.Server
	served chan error
	base   string
}

// startService opens the store in dir and serves it on a loopback port.
func startService(o options, dir string) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	m := server.NewManager(server.ManagerConfig{
		Workers:    o.workers,
		Store:      st,
		CacheBytes: 64 << 20,
		Tenants:    tenants,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Shutdown(context.Background())
		st.Close()
		return nil, err
	}
	s := &service{dir: dir, st: st, m: m, srv: &http.Server{Handler: server.NewHandler(m)},
		served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener, the manager and the store down and waits for
// the serving goroutine to end. It keeps the store directory.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	merr := s.m.Shutdown(ctx)
	return errors.Join(herr, merr, s.st.Close())
}

// client is one tenant's closed-loop HTTP client.
type client struct {
	hc   *http.Client
	base string
	key  string
}

// call sends one request and decodes a 2xx JSON reply into out.
func (c *client) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+c.key)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

func coldSpec(seed uint32) api.SubmitRequest {
	return api.SubmitRequest{Config: core.Table1Configs()[0], Workload: workload.TableISpec(seed), Requests: serveRequests}
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	id                         string
	hit                        bool // served from the result cache
	send, ack, observed        time.Time
	submitted, started, finish time.Time
	polls                      []time.Duration
	cpu                        time.Duration // process CPU time when recorded
}

// loadPass is the outcome of one closed-loop pass.
type loadPass struct {
	jobs     []jobRecord // in completion order
	start    time.Time
	startCPU time.Duration
	wall     time.Duration
	rejected int64
	result   *api.Result // one cold result, for the store measurements
}

// loadState is what both clients share during a pass.
type loadState struct {
	mu       sync.Mutex
	rep      *report
	pass     *loadPass
	started  atomic.Int64
	limit    int64
	hardStop time.Time
}

// next reserves a job slot, or reports that the pass is over.
func (ls *loadState) next() bool {
	return ls.started.Add(1) <= ls.limit && time.Now().Before(ls.hardStop)
}

// tenantLoad is one client's private state, kept across passes: the
// cold digest of every spec it has seen finish, so each hit is checked
// against its cold run.
type tenantLoad struct {
	c        *client
	rng      *rand.Rand
	nextSeed uint32
	finished []uint32
	digests  map[uint32]string
}

// runJob submits one job and polls it to a terminal state.
func (tl *tenantLoad) runJob(ls *loadState) {
	hit := len(tl.finished) > 0 && tl.rng.Float64() < hitShare
	var seed uint32
	if hit {
		seed = tl.finished[tl.rng.Intn(len(tl.finished))]
	} else {
		seed = tl.nextSeed
		tl.nextSeed += uint32(len(tenants))
	}
	body, err := json.Marshal(coldSpec(seed))
	if err != nil {
		panic(err) // a fixed struct always marshals
	}
	var rec jobRecord
	var st api.JobStatus
	fail := func(format string, args ...any) {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		ls.rep.attempted++
		ls.rep.fail(format, args...)
	}
	rec.send = time.Now()
	code, err := tl.c.call(http.MethodPost, "/v1/jobs", body, &st)
	rec.ack = time.Now()
	if err != nil {
		if code == http.StatusTooManyRequests {
			ls.mu.Lock()
			ls.pass.rejected++
			ls.mu.Unlock()
		}
		fail("submit: %v", err)
		return
	}
	for !st.State.Terminal() {
		time.Sleep(pollEvery)
		t0 := time.Now()
		if _, err := tl.c.call(http.MethodGet, "/v1/jobs/"+st.ID, nil, &st); err != nil {
			fail("poll %s: %v", st.ID, err)
			return
		}
		rec.polls = append(rec.polls, time.Since(t0))
	}
	rec.observed = time.Now()
	switch {
	case st.State != api.StateDone || st.Result == nil || st.Finished == nil:
		fail("job %s ended %s: %s", st.ID, st.State, st.Error)
		return
	case st.Result.Sent != serveRequests || st.Result.Completed != st.Result.Sent || st.Result.Errors != 0:
		fail("job %s: sent %d completed %d errors %d", st.ID, st.Result.Sent, st.Result.Completed, st.Result.Errors)
		return
	}
	rec.id = st.ID
	rec.hit = st.Result.Cache == api.CacheHit
	rec.submitted, rec.finish = st.Submitted, *st.Finished
	if st.Started != nil {
		rec.started = *st.Started
	}
	if want, ok := tl.digests[seed]; ok {
		if st.Result.ResultDigest != want {
			fail("job %s (%s): digest %s, its cold run gave %s", st.ID, st.Result.Cache, st.Result.ResultDigest, want)
			return
		}
	} else {
		tl.digests[seed] = st.Result.ResultDigest
		tl.finished = append(tl.finished, seed)
	}
	ls.mu.Lock()
	ls.rep.attempted++
	rec.cpu = cpuTime()
	ls.pass.jobs = append(ls.pass.jobs, rec)
	if !rec.hit && ls.pass.result == nil {
		ls.pass.result = st.Result
	}
	ls.mu.Unlock()
}

// drive runs jobs jobs in a closed loop: each tenant's client sends its
// next job as soon as its previous one is done.
func drive(loads []*tenantLoad, rep *report, jobs int64) *loadPass {
	start := time.Now()
	ls := &loadState{rep: rep, pass: &loadPass{start: start, startCPU: cpuTime()}, limit: jobs, hardStop: start.Add(maxPassSeconds * time.Second)}
	var wg sync.WaitGroup
	for _, tl := range loads {
		wg.Add(1)
		go func(tl *tenantLoad) {
			defer wg.Done()
			for ls.next() {
				tl.runJob(ls)
			}
		}(tl)
	}
	wg.Wait()
	ls.pass.wall = time.Since(start)
	return ls.pass
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// timedSetup starts a service on dir from a collected heap and returns
// the process CPU time the start took.
func timedSetup(o options, dir string) (*service, float64, error) {
	runtime.GC()
	c0 := cpuTime()
	s, err := startService(o, dir)
	return s, (cpuTime() - c0).Seconds(), err
}

// runServe measures the durable job service.
func runServe(o options, rep *report) error {
	// Each set-up starts once the previous one has stopped, on the same
	// data directory: the first creates its files, the rest reopen them
	// as a restart does. Creating them is left out of the median because
	// on a shared disk its kernel time swung tenfold (0.2 to 2.5 ms) with
	// other tenants' writeback, whatever the service did.
	dir, err := runDir(o, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var setups []float64
	var svc *service
	for i := 0; i <= serveSetups; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return err
			}
		}
		s, t, err := timedSetup(o, dir)
		if err != nil {
			return err
		}
		if i > 0 {
			setups = append(setups, t)
		}
		svc = s
	}
	rep.set("setup_s", median(setups))

	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(tenants)}}
	defer hc.CloseIdleConnections()
	in := seedInputs(o.seed, len(tenants)+2)
	newLoads := func(base uint32) []*tenantLoad {
		var loads []*tenantLoad
		for i, t := range tenants[:min(len(tenants), o.workers)] {
			loads = append(loads, &tenantLoad{
				c:        &client{hc: hc, base: svc.base, key: t.Key},
				rng:      rand.New(rand.NewSource(int64(in[i]))),
				nextSeed: base + uint32(i),
				digests:  make(map[uint32]string),
			})
		}
		return loads
	}
	// Warm-up specs come from their own seed range and are forgotten,
	// so no timed hit repeats a warm-up job.
	drive(newLoads(in[len(tenants)]), rep, warmupJobs)
	loads := newLoads(in[len(tenants)+1])
	runtime.GC()

	jobs := max(minJobs, int64(o.seconds*jobsPerSecond))
	var measured *loadPass
	var tr *tracer
	var untraced, traced time.Duration
	if !o.traced {
		measured = drive(loads, rep, jobs)
		if err := serveRates(measured, rep); err != nil {
			return err
		}
	} else {
		base := drive(loads, rep, max(tracedJobs, jobs/2))
		if err := serveRates(base, rep); err != nil {
			return err
		}
		runtime.GC()
		measured = drive(loads, rep, int64(len(base.jobs)))
		untraced, traced = base.wall, measured.wall
		tr = &tracer{}
	}
	rep.info["jobs"] = len(measured.jobs)
	// The job table and journal only grow during a pass, so its end is
	// its peak. Free memory goes back to the OS first: a sample taken at
	// a random point of the collector's cycle swung by 8%.
	debug.FreeOSMemory()
	rep.sampleRSS()

	var lookupMean float64
	if o.traced {
		var m map[string]json.RawMessage
		c := loads[0].c
		if _, err := c.call(http.MethodGet, "/v1/metrics", nil, &m); err != nil {
			return fmt.Errorf("metrics scrape: %w", err)
		}
		// The histogram's buckets start at 1 ms, far above a lookup, so
		// its quantiles cannot resolve one; its exact sum and count can.
		var h struct {
			Count float64 `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if err := json.Unmarshal(m["cache_lookup_seconds"], &h); err != nil {
			return fmt.Errorf("metrics scrape: cache_lookup_seconds: %w", err)
		}
		lookupMean = ratio(h.Sum, h.Count) * 1e6
	}
	if err := svc.stop(); err != nil {
		return fmt.Errorf("service shutdown: %w", err)
	}
	if !o.traced {
		return nil
	}
	if err := serveLayers(measured, tr, rep); err != nil {
		return err
	}
	rep.set("server.cache_lookup_us_mean", lookupMean)
	if err := journalCensus(svc.dir, rep); err != nil {
		return err
	}
	if err := traceSummary(o, rep, tr, untraced, traced); err != nil {
		return err
	}
	return storeModules(o, measured.result, rep)
}

// serveRates turns an untraced pass into the service's rates and
// latency percentiles, each the median over the pass's windows of jobs
// (in completion order). A window's rates run from the previous
// window's last completion. sim_req_per_s counts process CPU time, like
// the engine workloads' rate; the rest is wall time as the clients saw
// it, and is per-layer: on a shared host it follows the neighbours'
// load and the disk's fsync latency too closely to carry a bound.
func serveRates(p *loadPass, rep *report) error {
	var jobMS, submitMS, jobRates, reqRates []float64
	for _, j := range p.jobs {
		jobMS = append(jobMS, ms(j.finish.Sub(j.send)))
		submitMS = append(submitMS, ms(j.ack.Sub(j.send)))
	}
	from, fromCPU := p.start, p.startCPU
	for _, w := range windows(p.jobs, minJobs) {
		last := w[len(w)-1]
		var cold int
		for _, j := range w {
			if !j.hit {
				cold++
			}
		}
		jobRates = append(jobRates, ratio(float64(len(w)), last.observed.Sub(from).Seconds()))
		reqRates = append(reqRates, ratio(float64(cold*serveRequests), (last.cpu-fromCPU).Seconds()))
		from, fromCPU = last.observed, last.cpu
	}
	rep.set("jobs_per_s", median(jobRates))
	rep.set("sim_req_per_s", median(reqRates))
	return setPercentiles(rep, map[string][]float64{"job": jobMS, "submit": submitMS})
}

// setPercentiles reports <prefix>_p50_ms and <prefix>_p99_ms of each
// sample set, windowed.
func setPercentiles(rep *report, samples map[string][]float64) error {
	for prefix, xs := range samples {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_ms", 0.5}, {"_p99_ms", 0.99}} {
			v, err := windowedPercentile(xs, q.q)
			if err != nil {
				return fmt.Errorf("%s%s: %w", prefix, q.suffix, err)
			}
			rep.set(prefix+q.suffix, v)
		}
	}
	return nil
}

// serveLayers derives the per-layer service metrics from the jobs'
// timestamps and records one span tree per job, with the job ID as the
// trace ID. The child spans are disjoint: the submit round trip, then
// the queue wait and the service time as the server stamped them,
// clipped to start after the acknowledgement.
func serveLayers(p *loadPass, tr *tracer, rep *report) error {
	var queueMS, serviceMS, pollMS []float64
	var polls, hits int
	for _, j := range p.jobs {
		polls += len(j.polls)
		for _, d := range j.polls {
			pollMS = append(pollMS, ms(d))
		}
		root := tr.add(j.id, "job", 0, j.send, j.observed)
		tr.add(j.id, "server.submit", root, j.send, j.ack)
		clip := func(t time.Time) time.Time {
			if t.Before(j.ack) {
				return j.ack
			}
			if t.After(j.observed) {
				return j.observed
			}
			return t
		}
		if j.hit {
			hits++
			continue
		}
		queueMS = append(queueMS, ms(j.started.Sub(j.submitted)))
		serviceMS = append(serviceMS, ms(j.finish.Sub(j.started)))
		tr.add(j.id, "server.queue", root, clip(j.submitted), clip(j.started))
		tr.add(j.id, "server.service", root, clip(j.started), clip(j.finish))
	}
	for _, q := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"server.queue_wait_ms_p50", queueMS, 0.5}, {"server.queue_wait_ms_p99", queueMS, 0.99},
		{"server.service_ms_p50", serviceMS, 0.5}, {"server.service_ms_p99", serviceMS, 0.99},
		{"server.poll_ms_p50", pollMS, 0.5},
	} {
		v, err := percentile(q.xs, q.q)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		rep.set(q.name, v)
	}
	n := float64(len(p.jobs))
	rep.set("server.polls_per_job", ratio(float64(polls), n))
	rep.set("server.cache_hit_frac", ratio(float64(hits), n))
	rep.set("server.rejected_frac", ratio(float64(p.rejected), n+float64(p.rejected)))
	return nil
}

// journalCensus reopens the run's store and counts its journal per job
// the journal names.
func journalCensus(dir string, rep *report) error {
	st, err := store.Open(dir)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	records := st.Records()
	jobs := make(map[string]bool)
	for _, r := range records {
		jobs[r.Job] = true
	}
	if err := st.Close(); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var size int64
	for _, e := range entries {
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			size += info.Size()
		}
	}
	rep.set("store.records_per_job", ratio(float64(len(records)), float64(len(jobs))))
	rep.set("store.journal_bytes_per_job", ratio(float64(size), float64(len(jobs))))
	return nil
}

// storeModules times Store.Append with a submitted record shaped like the
// workload's, at one and two concurrent writers, and Store.SaveResult
// with a cold job's result, on a fresh store.
func storeModules(o options, res *api.Result, rep *report) error {
	if res == nil {
		return fmt.Errorf("no cold job result to persist")
	}
	dir, err := runDir(o, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	spec, err := json.Marshal(coldSpec(1))
	if err != nil {
		return err
	}
	appendAt := func(writers int) (float64, error) {
		var wg sync.WaitGroup
		busy := make([]time.Duration, writers)
		calls := make([]int, writers)
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				start := time.Now()
				for time.Since(start) < microBudget {
					rec := store.Record{Type: store.RecSubmitted, Job: fmt.Sprintf("job-%d-%06d", w, calls[w]),
						Time: time.Now(), Tenant: tenants[w%len(tenants)].Name, Spec: spec}
					t0 := time.Now()
					if err := st.Append(rec); err != nil {
						errs[w] = err
						return
					}
					busy[w] += time.Since(t0)
					calls[w]++
				}
			}(w)
		}
		wg.Wait()
		var b time.Duration
		var n int
		for w := range busy {
			if errs[w] != nil {
				return 0, errs[w]
			}
			b += busy[w]
			n += calls[w]
		}
		return ratio(float64(b)/1e3, float64(n)), nil
	}
	w1, err := appendAt(1)
	if err != nil {
		return err
	}
	w2, err := appendAt(o.workers)
	if err != nil {
		return err
	}
	rep.set("store.append_us.w1", w1)
	rep.set("store.append_us.w2", w2)
	var i int
	var saveErr error
	save := timed(func() int {
		if saveErr == nil {
			saveErr = st.SaveResult(fmt.Sprintf("job-%06d", i), res)
		}
		i++
		return 1
	})
	if saveErr != nil {
		return saveErr
	}
	rep.set("store.save_result_us", save/1e3)
	return nil
}
