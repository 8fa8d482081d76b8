package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

// benchmarkFile mirrors the keys of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	defs, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	for _, d := range defs {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: bad name or unit", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		for _, w := range append(append(append([]string(nil), d.Workloads...), d.On...), d.NoChangeOn...) {
			if !slices.Contains(workloadNames, w) {
				t.Errorf("metric %q names unknown workload %q", d.Name, w)
			}
		}
		// A module metric moves an end-to-end metric, or one of
		// serve_durable's unprefixed wall-clock figures.
		for _, m := range d.Moves {
			if target := lookup(defs, m); target == nil || module(target.Name) != "bench" {
				t.Errorf("metric %q moves %q, which is not a workload-level metric", d.Name, m)
			}
		}
	}

	var declaredNames []string
	for _, w := range b.Workloads {
		declaredNames = append(declaredNames, w.Name)
	}
	if !slices.Equal(declaredNames, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", declaredNames, workloadNames)
	}
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if d := lookup(defs, m.Name); d == nil || d.Unit != m.Unit || d.Better != m.Better || d.Layer != "end_to_end" {
			t.Errorf("BENCHMARK.json end_to_end %q disagrees with metrics.json", m.Name)
		}
		// Every workload measures every end-to-end metric: none may
		// report a 0 it did not measure.
		if d := lookup(defs, m.Name); d != nil && !slices.Equal(d.Workloads, workloadNames) {
			t.Errorf("end-to-end %q is measured on %v only", m.Name, d.Workloads)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
		if d := lookup(defs, m.Name); d == nil || d.Unit != m.Unit || d.Better != m.Better || d.Layer != "per_layer" {
			t.Errorf("BENCHMARK.json per_layer %q disagrees with metrics.json", m.Name)
		}
	}
	if !slices.Equal(e2e, names(defs, "end_to_end")) || !slices.Equal(layer, names(defs, "per_layer")) {
		t.Errorf("BENCHMARK.json metrics %v / %v differ from metrics.json", e2e, layer)
	}
	if len(e2e) > 16 || len(layer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(e2e), len(layer))
	}
	if !slices.Contains(e2e, "setup_s") {
		t.Error("setup_s is missing")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("p50 of 19 samples was reported")
	}

	// Windows hold at least minJobs samples each, so a windowed p99
	// obeys the same rule.
	long := make([]float64, 2500)
	for i := range long {
		long[i] = float64(i % 1000)
	}
	if n := len(windows(long, minJobs)); n != 2 {
		t.Errorf("2500 samples make %d windows, want 2", n)
	}
	if v, err := windowedPercentile(long, 0.99); err != nil || v != 987 {
		t.Errorf("windowed p99 = %v, %v; want 987", v, err)
	}
	if _, err := windowedPercentile(xs[:999], 0.99); err == nil {
		t.Error("windowed p99 of 999 samples was reported")
	}
}

// TestPinnedDigestsHold replays every pinned seed: the program must
// reproduce each digest and count exactly.
func TestPinnedDigestsHold(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range engineWorkloads {
		for _, seed := range []int64{1, 1009} {
			p, ok := pins.lookup(w, seed)
			if !ok || len(p.Digests) != engineInputs {
				t.Errorf("%s seed %d: no complete pin", w, seed)
				continue
			}
			rep := newReport()
			if _, _, err := warmup(testOptions(t, w, seed), seedInputs(seed, engineInputs), &p, rep); err != nil {
				t.Fatal(err)
			}
			if rep.failed != 0 {
				t.Errorf("%s seed %d: %d of %d checks failed", w, seed, rep.failed, rep.attempted)
			}
		}
	}
}

func TestWrongPinnedDigestCountsAsFailure(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := pins.lookup("table1_dense", 1)
	wrong := pin{Digests: append([]string(nil), p.Digests...), Counts: p.Counts}
	wrong.Digests[3] = "0000000000000000"
	o := testOptions(t, "table1_dense", 1)
	o.seconds = 0.001
	rep := newReport()
	in := seedInputs(o.seed, engineInputs)
	if _, _, err := warmup(o, in, &wrong, rep); err != nil {
		t.Fatal(err)
	}
	// A repetition that disagrees with its input's first run fails too.
	refs := make([]uint64, len(in))
	if _, err := pass(o, in, refs, rep, nil, 0, 2); err != nil {
		t.Fatal(err)
	}
	rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	if rep.failed != 3 || rep.values["fail_frac"] <= 0 {
		t.Errorf("failed %d of %d (fail_frac %v), want 3 failures", rep.failed, rep.attempted, rep.values["fail_frac"])
	}

	// A run with any failure is never reported correct.
	full := newReport()
	for _, d := range mustCatalog(t) {
		full.set(d.Name, 1)
	}
	full.attempted, full.failed = 10, 1
	if res, err := assemble(mustCatalog(t), options{workload: "table1_dense"}, full); err != nil || res.Correct {
		t.Errorf("assemble with a failure: correct=%v, err=%v", res.Correct, err)
	}
	full.failed = 0
	if res, err := assemble(mustCatalog(t), options{workload: "table1_dense"}, full); err != nil || !res.Correct {
		t.Errorf("assemble without failures: correct=%v, err=%v", res.Correct, err)
	}
}

// TestServeChecksHitDigests drives a short closed loop through the
// durable service. Every job must pass; once the digests the client
// remembers for finished specs are wrong, every cache hit on one of
// them must count as a failure.
func TestServeChecksHitDigests(t *testing.T) {
	o := testOptions(t, "serve_durable", 5)
	svc, err := startService(o, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	tl := &tenantLoad{c: &client{hc: hc, base: svc.base, key: tenants[0].Key},
		rng: rand.New(rand.NewSource(1)), nextSeed: 100, digests: make(map[uint32]string)}
	rep := newReport()
	p := drive([]*tenantLoad{tl}, rep, 40)
	hits := 0
	for _, j := range p.jobs {
		if j.hit {
			hits++
		}
	}
	if rep.failed != 0 || len(p.jobs) != 40 || hits == 0 {
		t.Errorf("%d jobs, %d hits, %d failures; want 40 jobs, some hits, no failures", len(p.jobs), hits, rep.failed)
	}

	for seed := range tl.digests {
		tl.digests[seed] = "0000000000000000"
	}
	bad := newReport()
	p = drive([]*tenantLoad{tl}, bad, 20)
	bad.set("fail_frac", ratio(float64(bad.failed), float64(bad.attempted)))
	if bad.failed == 0 || bad.values["fail_frac"] <= 0 || int64(len(p.jobs))+bad.failed != bad.attempted {
		t.Errorf("wrong remembered digests: %d of %d failed, %d passed", bad.failed, bad.attempted, len(p.jobs))
	}
	if err := svc.stop(); err != nil {
		t.Error(err)
	}
}

func TestSpanSharesStayWithinParent(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{}
	root := tr.add("j1", "job", 0, at(0), at(100))
	tr.add("j1", "eval.build", root, at(0), at(10))
	run := tr.add("j1", "host.run", root, at(10), at(90))
	tr.aggregate("j1", "workload.next", run, at(11), at(89), 1000, 20*time.Millisecond)
	tr.add("j2", "job", 0, at(200), at(300))
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	shares := moduleShares(tr.spans)
	want := map[string]float64{"bench": 0.55, "eval": 0.05, "host": 0.3, "workload": 0.1}
	var total float64
	for m, v := range shares {
		total += v
		if d := v - want[m]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s self share %v, want %v", m, v, want[m])
		}
	}
	if d := total - 1; d > 1e-9 || d < -1e-9 {
		t.Errorf("shares sum to %v, want 1", total)
	}

	bad := &tracer{}
	r := bad.add("j", "job", 0, at(0), at(10))
	bad.add("j", "host.run", r, at(5), at(20))
	if checkNesting(bad.spans) == nil {
		t.Error("a child outliving its parent passed")
	}
	over := &tracer{}
	r = over.add("j", "job", 0, at(0), at(10))
	over.aggregate("j", "workload.next", r, at(0), at(10), 5, 20*time.Millisecond)
	if checkNesting(over.spans) == nil {
		t.Error("children covering more than their parent passed")
	}
}

// TestTracedPassNests runs a few traced engine jobs and checks the span
// tree they record.
func TestTracedPassNests(t *testing.T) {
	for _, w := range engineWorkloads {
		o := testOptions(t, w, 7)
		in := seedInputs(o.seed, 2)
		rep := newReport()
		refs, _, err := warmup(o, in, nil, rep)
		if err != nil {
			t.Fatal(err)
		}
		tr := &tracer{}
		if _, err := pass(o, in, refs, rep, tr, 0, 3); err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 {
			t.Errorf("%s: %d failures", w, rep.failed)
		}
		if err := checkNesting(tr.spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		var total float64
		for _, v := range moduleShares(tr.spans) {
			if v < 0 || v > 1 {
				t.Errorf("%s: share %v outside [0, 1]", w, v)
			}
			total += v
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s: shares sum to %v", w, total)
		}
	}
}

var engineWorkloads = []string{"table1_dense", "sparse_chase", "fabric_mesh"}

func testOptions(t *testing.T, w string, seed int64) options {
	return options{workload: w, seed: seed, seconds: 1, workDir: t.TempDir(), workers: 2}
}

func mustCatalog(t *testing.T) []metricDef {
	t.Helper()
	defs, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func lookup(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

func names(defs []metricDef, layer string) []string {
	var out []string
	for _, d := range defs {
		if d.Layer == layer {
			out = append(out, d.Name)
		}
	}
	return out
}
