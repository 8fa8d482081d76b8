package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fabric/engine"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
	"hmcsim/internal/workload"
)

// Engine workload shapes. Each run cycles through engineInputs distinct
// inputs derived from the seed, so a run averages over several inputs
// and every input repeats often enough to check that its repetitions
// agree.
const (
	engineInputs = 8
	// minJobs gives a p99 ten samples beyond it: the fewest jobs a pass
	// runs, and the window of a windowed percentile.
	minJobs = 1000
	// rateWindow is how many consecutive engine jobs one rate sample
	// spans, about a second's worth.
	rateWindow = 100
	// maxPassSeconds caps a pass that cannot reach minJobs in time.
	maxPassSeconds = 120

	denseRequests  = 1 << 11 // per Table I config
	chaseRequests  = 1 << 12
	chaseGap       = 500
	fabricRequests = 1 << 13
)

// meshSpec is fabric_mesh's system graph: 2x2 config-1 cubes, 64-byte
// interleave, 4-cycle inter-cube links, traffic injected at cube 0.
func meshSpec() fabric.Spec {
	return fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2, LinkLatency: 4, InterleaveBytes: 64}
}

// simRun is one simulation of a job: an engine, its access stream and
// the host driver that injects n requests.
type simRun struct {
	h   *core.HMC
	sys *engine.System // fabric_mesh only
	gen workload.Generator
	drv *host.Driver
	n   uint64
}

// hooks time the host driver loop and the generator from outside the program:
// the host driver polls Interrupt once per loop iteration and calls Next
// through timedGen.
type hooks struct {
	polls     int64
	lastPoll  time.Time
	iterTime  time.Duration
	intervals int64
	gen       *timedGen
}

func (k *hooks) interrupt() error {
	now := time.Now()
	if k.polls > 0 {
		k.iterTime += now.Sub(k.lastPoll)
		k.intervals++
	}
	k.lastPoll = now
	k.polls++
	return nil
}

type timedGen struct {
	workload.Generator
	calls       int64
	busy        time.Duration
	first, last time.Time
}

func (g *timedGen) Next() workload.Access {
	t0 := time.Now()
	a := g.Generator.Next()
	t1 := time.Now()
	if g.calls == 0 {
		g.first = t0
	}
	g.last = t1
	g.calls++
	g.busy += t1.Sub(t0)
	return a
}

// engineJob is one prepared job of an engine workload.
type engineJob struct {
	runs  []simRun
	hooks []*hooks // traced pass only, one per run
	spans []int    // build-phase span IDs, parented to the job root later
}

// buildSpanName is the span recorded around the engine constructor.
func buildSpanName(workload string) string {
	if workload == "fabric_mesh" {
		return "fabric.build"
	}
	return "eval.build"
}

// prepare builds one job of workload w for the given input seed. With a
// tracer it records a span around every constructor call and installs
// the timing hooks.
func prepare(w string, input uint32, workers int, tr *tracer, traceID string) (*engineJob, error) {
	job := &engineJob{}
	type shape struct {
		cfg  core.Config
		spec workload.Spec
		opts host.Options
		n    uint64
	}
	var shapes []shape
	switch w {
	case "table1_dense":
		for _, cfg := range core.Table1Configs() {
			shapes = append(shapes, shape{cfg: cfg, spec: workload.TableISpec(input), n: denseRequests})
		}
	case "sparse_chase":
		shapes = []shape{{cfg: core.Table1Configs()[0], spec: workload.Spec{Kind: "chase", Seed: input, Size: 64},
			opts: host.Options{GapCycles: chaseGap}, n: chaseRequests}}
	case "fabric_mesh":
		cfg := core.Table1Configs()[0]
		cfg.Workers = workers
		shapes = []shape{{cfg: cfg, spec: workload.TableISpec(input), n: fabricRequests}}
	default:
		return nil, fmt.Errorf("not an engine workload: %q", w)
	}
	record := func(name string, t0 time.Time) {
		if tr != nil {
			job.spans = append(job.spans, tr.add(traceID, name, 0, t0, time.Now()))
		}
	}
	for _, s := range shapes {
		var r simRun
		var err error
		capacity := uint64(s.cfg.CapacityGB) << 30
		t0 := time.Now()
		if w == "fabric_mesh" {
			r.sys, err = engine.Build(meshSpec(), s.cfg)
			if err == nil {
				r.h = r.sys.Engine()
				capacity = r.sys.Capacity()
			}
		} else {
			r.h, err = eval.BuildSimple(s.cfg)
		}
		if err != nil {
			return nil, err
		}
		record(buildSpanName(w), t0)
		t0 = time.Now()
		if r.gen, err = s.spec.Build(capacity); err != nil {
			return nil, err
		}
		record("workload.new", t0)
		opts := s.opts
		if tr != nil {
			k := &hooks{gen: &timedGen{Generator: r.gen}}
			r.gen = k.gen
			opts.Interrupt = k.interrupt
			job.hooks = append(job.hooks, k)
		}
		t0 = time.Now()
		if r.sys != nil {
			r.drv, err = r.sys.NewDriver(opts)
		} else {
			r.drv, err = host.NewDriver(r.h, opts)
		}
		if err != nil {
			return nil, err
		}
		record("host.new_driver", t0)
		r.n = s.n
		job.runs = append(job.runs, r)
	}
	return job, nil
}

// timedPrepare prepares a job and returns the CPU time its building
// thread spent. Building is single-threaded; the thread clock leaves out
// the runtime's other threads, such as those that wake to start a worker
// pool's goroutines.
func timedPrepare(o options, input uint32, tr *tracer, traceID string) (*engineJob, time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := threadTime()
	job, err := prepare(o.workload, input, o.workers, tr, traceID)
	return job, threadTime() - t0, err
}

// jobOutcome is what one executed job produced.
type jobOutcome struct {
	results []host.Result
	digest  uint64
	runTime time.Duration
}

// execute runs every simulation of the job and checks it: the run must
// not error, must complete every request it sent, and must see no error
// responses. Failures are counted in rep.
func (j *engineJob) execute(rep *report, tr *tracer, traceID string) jobOutcome {
	var out jobOutcome
	d := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	for i, r := range j.runs {
		t0 := time.Now()
		res, err := r.drv.Run(r.gen, r.n)
		t1 := time.Now()
		out.runTime += t1.Sub(t0)
		rep.attempted++
		switch {
		case err != nil:
			rep.fail("run %d: %v", i, err)
		case res.Sent != r.n || res.Completed != res.Sent:
			rep.fail("run %d: sent %d completed %d of %d", i, res.Sent, res.Completed, r.n)
		case res.Errors != 0:
			rep.fail("run %d: %d error responses", i, res.Errors)
		}
		out.results = append(out.results, res)
		w64(eval.ResultDigest(res))
		if r.sys != nil {
			w64(r.sys.Totals().Digest())
		}
		if tr != nil {
			id := tr.add(traceID, "host.run", 0, t0, t1)
			j.spans = append(j.spans, id)
			if g := j.hooks[i].gen; g.calls > 0 {
				tr.aggregate(traceID, "workload.next", id, g.first, g.last, g.calls, g.busy)
			}
		}
	}
	out.digest = d.Sum64()
	return out
}

// counts are the exact simulated counts of one pass over the distinct
// inputs. They must stay bit-identical under any performance change.
type counts map[string]float64

func simCounts(w string, outs []jobOutcome, fabricTotals []engine.Totals) counts {
	var cycles, skipped, wakeups, sent, conflicts, stalls float64
	var lat stats.Histogram
	for _, o := range outs {
		for _, r := range o.results {
			cycles += float64(r.Cycles)
			skipped += float64(r.IdleCyclesSkipped)
			wakeups += float64(r.Wakeups)
			sent += float64(r.Sent)
			conflicts += float64(r.Engine.BankConflicts)
			stalls += float64(r.Engine.XbarRqstStalls)
			lat.Merge(&r.Latency)
		}
	}
	c := counts{
		"core.cycles":                 cycles,
		"core.idle_skip_frac":         ratio(skipped, cycles),
		"core.wakeups":                wakeups,
		"core.bank_conflicts_per_req": ratio(conflicts, sent),
		"core.xbar_stalls_per_req":    ratio(stalls, sent),
		"host.latency_p50_cycles":     float64(lat.Percentile(50)),
		"host.latency_p99_cycles":     float64(lat.Percentile(99)),
	}
	if w == "fabric_mesh" {
		var hops, inter float64
		for _, t := range fabricTotals {
			hops += float64(t.Hops)
			inter += float64(t.IntercubePackets)
		}
		c["fabric.hops_per_req"] = ratio(hops, sent)
		c["fabric.intercube_frac"] = ratio(inter, sent)
	}
	return c
}

//go:embed pins.json
var pinsJSON []byte

// pin is the expected outcome of one workload at one seed: the job
// digest of each distinct input and the exact simulated counts.
type pin struct {
	Digests []string `json:"digests"`
	Counts  counts   `json:"counts"`
}

type pinTable map[string]map[string]pin

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func (p pinTable) lookup(w string, seed int64) (pin, bool) {
	e, ok := p[w][strconv.FormatInt(seed, 10)]
	return e, ok
}

func hexDigest(d uint64) string { return fmt.Sprintf("%016x", d) }

// warmup runs each distinct input once, untimed. It yields the reference
// digest every later repetition must match, and the exact counts, both
// checked against the pin when the seed has one. It also samples each
// job's resident memory: every warm-up job starts with the heap's free
// memory back with the OS, so the sample is the job's own footprint
// rather than what the background scavenger has yet to release.
func warmup(o options, in []uint32, want *pin, rep *report) ([]uint64, counts, error) {
	refs := make([]uint64, len(in))
	var outs []jobOutcome
	var totals []engine.Totals
	for i, input := range in {
		debug.FreeOSMemory()
		job, err := prepare(o.workload, input, o.workers, nil, "")
		if err != nil {
			return nil, nil, err
		}
		out := job.execute(rep, nil, "")
		rep.sampleRSS()
		for _, r := range job.runs {
			if r.sys != nil {
				totals = append(totals, r.sys.Totals())
			}
		}
		refs[i] = out.digest
		outs = append(outs, out)
		if want != nil && (i >= len(want.Digests) || want.Digests[i] != hexDigest(out.digest)) {
			rep.fail("input %d digest %s does not match the pinned value", i, hexDigest(out.digest))
		}
	}
	c := simCounts(o.workload, outs, totals)
	if want != nil {
		for name, v := range c {
			if pv, ok := want.Counts[name]; !ok || pv != v {
				rep.fail("%s = %v, pinned %v", name, v, pv)
			}
		}
	}
	return refs, c, nil
}

// engineSamples are one pass's per-job timings.
type engineSamples struct {
	jobs     int
	requests uint64
	runTime  time.Duration
	wall     time.Duration
	jobMS    []float64 // process CPU time of each job's runs
	setupS   []float64 // building-thread CPU time of each job's set-up
	// Traced pass only: driver-loop and generator timings over every
	// job, and the exact Interrupt poll count over the first pass through
	// the inputs.
	polls, intervals, nextCalls int64
	iterTime, nextBusy          time.Duration
}

// pass runs jobs cycling through the inputs until the time is up and at
// least minJobs ran, or until exactly jobLimit jobs ran when it is set.
// Every job's digest is checked against its input's reference.
func pass(o options, in []uint32, refs []uint64, rep *report, tr *tracer, seconds float64, jobLimit int) (engineSamples, error) {
	var s engineSamples
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	hardStop := start.Add(maxPassSeconds * time.Second)
	for k := 0; ; k++ {
		now := time.Now()
		if jobLimit > 0 {
			if k >= jobLimit {
				break
			}
		} else if (now.After(deadline) && k >= minJobs) || now.After(hardStop) {
			break
		}
		i := k % len(in)
		// Every job starts from a collected heap, outside its timings, so
		// its run does not pay for earlier jobs' garbage at whatever
		// moment the collector happens to run.
		runtime.GC()
		traceID := fmt.Sprintf("%s-%d", o.workload, k)
		t0 := time.Now()
		job, build, err := timedPrepare(o, in[i], tr, traceID)
		if err != nil {
			return s, err
		}
		s.setupS = append(s.setupS, build.Seconds())
		c0 := cpuTime()
		out := job.execute(rep, tr, traceID)
		run := cpuTime() - c0
		if out.digest != refs[i] {
			rep.fail("job %d (input %d): digest %s, its first run gave %s", k, i, hexDigest(out.digest), hexDigest(refs[i]))
		}
		if tr != nil {
			root := tr.add(traceID, "job", 0, t0, time.Now())
			for _, id := range job.spans {
				tr.reparent(id, root)
			}
		}
		s.jobs++
		s.runTime += out.runTime
		s.jobMS = append(s.jobMS, float64(run)/1e6)
		for _, r := range job.runs {
			s.requests += r.n
		}
		for _, h := range job.hooks {
			if k < len(in) {
				s.polls += h.polls
			}
			s.intervals += h.intervals
			s.iterTime += h.iterTime
			s.nextCalls += h.gen.calls
			s.nextBusy += h.gen.busy
		}
	}
	s.wall = time.Since(start)
	return s, nil
}

// runEngine measures one engine workload.
func runEngine(o options, rep *report) error {
	pins, err := loadPins()
	if err != nil {
		return err
	}
	in := seedInputs(o.seed, engineInputs)
	var want *pin
	if p, ok := pins.lookup(o.workload, o.seed); ok {
		want = &p
		rep.info["pinned"] = true
	}

	refs, c, err := warmup(o, in, want, rep)
	if err != nil {
		return err
	}

	if !o.traced {
		s, err := pass(o, in, refs, rep, nil, o.seconds, 0)
		if err != nil {
			return err
		}
		engineEndToEnd(s, rep)
		return nil
	}

	// Traced run: an untraced pass sets the job count, then the traced
	// pass repeats exactly those jobs so the difference is the tracing
	// overhead.
	base, err := pass(o, in, refs, rep, nil, o.seconds/2, 0)
	if err != nil {
		return err
	}
	tr := &tracer{}
	s, err := pass(o, in, refs, rep, tr, 0, base.jobs)
	if err != nil {
		return err
	}
	for name, v := range c {
		rep.set(name, v)
	}
	rep.set("host.iters", float64(s.polls))
	rep.set("host.iter_ns", ratio(float64(s.iterTime), float64(s.intervals)))
	rep.set("host.run_s", ratio(s.runTime.Seconds(), float64(s.jobs)))
	tc := timerCost()
	rep.set("trace.timer_ns", tc)
	rep.set("workload.next_ns", max(0, ratio(float64(s.nextBusy), float64(s.nextCalls))-tc))
	var runSpan, nextSpan int64
	for _, sp := range tr.spans {
		switch sp.Name {
		case "host.run":
			runSpan += sp.Busy
		case "workload.next":
			nextSpan += sp.Busy
		}
	}
	rep.set("workload.next_share", ratio(float64(nextSpan), float64(runSpan)))
	if err := traceSummary(o, rep, tr, base.wall, s.wall); err != nil {
		return err
	}
	return engineModules(o, in[0], rep)
}

// engineEndToEnd turns an untraced pass into the end-to-end metrics.
// The rate is the median over windows of rateWindow consecutive jobs;
// the set-up time is the median over every job's set-up (build,
// topology, generators and drivers), so it samples the whole pass
// rather than one moment of it.
func engineEndToEnd(s engineSamples, rep *report) {
	rep.info["jobs"] = s.jobs
	rep.set("setup_s", median(s.setupS))
	perJob := ratio(float64(s.requests), float64(s.jobs))
	var rates []float64
	for _, w := range windows(s.jobMS, rateWindow) {
		rates = append(rates, ratio(float64(len(w))*perJob, sum(w)/1e3))
	}
	rep.set("sim_req_per_s", median(rates))
}

// traceSummary checks the span tree, reports module self-time shares and
// the tracing overhead, and writes the spans out.
func traceSummary(o options, rep *report, tr *tracer, untraced, traced time.Duration) error {
	if err := checkNesting(tr.spans); err != nil {
		rep.fail("span tree: %v", err)
	}
	shares := moduleShares(tr.spans)
	for _, m := range []string{"bench", "eval", "fabric", "host", "workload", "server"} {
		rep.set(m+".self_share", shares[m])
	}
	rep.set("trace.spans", float64(len(tr.spans)))
	rep.set("trace.overhead_s", (traced - untraced).Seconds())
	rep.set("trace.overhead_frac", ratio(float64(traced-untraced), float64(untraced)))
	path := filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	rep.info["spans_file"] = path
	return nil
}

// printPins prints the pins.json entry for the workload at the seed.
func printPins(o options) error {
	in := seedInputs(o.seed, engineInputs)
	rep := newReport()
	refs, c, err := warmup(o, in, nil, rep)
	if err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%d runs failed; nothing to pin", rep.failed)
	}
	p := pin{Counts: c}
	for _, r := range refs {
		p.Digests = append(p.Digests, hexDigest(r))
	}
	enc := json.NewEncoder(os.Stdout)
	return enc.Encode(map[string]map[string]pin{o.workload: {strconv.FormatInt(o.seed, 10): p}})
}
