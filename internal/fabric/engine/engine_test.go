package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/eval"
	"hmcsim/internal/fabric"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// mesh2x2 is the acceptance-criterion fabric: four cubes in a 2x2 mesh
// with a multi-cycle link.
func mesh2x2() fabric.Spec {
	return fabric.Spec{Topology: fabric.TopoMesh, Rows: 2, Cols: 2, LinkLatency: 4}
}

func cubeConfig(workers int) core.Config {
	return core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 8,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 1, XbarDepth: 16,
		Workers: workers,
	}
}

func faultyConfig(workers int) core.Config {
	cfg := cubeConfig(workers)
	cfg.Fault = fault.Config{TransientPPM: 20000, Seed: 7, MaxRetries: 4}
	return cfg
}

// fabricRun drives n requests through a freshly built fabric with full
// tracing and returns every observable the conformance contract pins.
type runOut struct {
	res          host.Result
	resultDigest uint64
	stateDigest  uint64
	totals       Totals
	trace        []byte
}

func fabricRun(t *testing.T, spec fabric.Spec, cfg core.Config, n uint64) runOut {
	t.Helper()
	sys, err := Build(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	sys.Engine().SetTracer(tw)
	sys.Engine().SetTraceMask(trace.MaskAll)
	d, err := sys.NewDriver(host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(11, sys.Capacity(), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return runOut{
		res:          res,
		resultDigest: eval.ResultDigest(res),
		stateDigest:  sys.Engine().StateDigest(),
		totals:       sys.Totals(),
		trace:        buf.Bytes(),
	}
}

func compareOut(t *testing.T, label string, ref, got runOut) {
	t.Helper()
	if got.resultDigest != ref.resultDigest {
		t.Errorf("%s: result digest %016x, want %016x", label, got.resultDigest, ref.resultDigest)
	}
	if got.stateDigest != ref.stateDigest {
		t.Errorf("%s: state digest %016x, want %016x", label, got.stateDigest, ref.stateDigest)
	}
	if g, w := got.totals.Digest(), ref.totals.Digest(); g != w {
		t.Errorf("%s: fabric digest %016x, want %016x\n got %+v\nwant %+v",
			label, g, w, got.totals, ref.totals)
	}
	if !bytes.Equal(got.trace, ref.trace) {
		i := 0
		for i < len(got.trace) && i < len(ref.trace) && got.trace[i] == ref.trace[i] {
			i++
		}
		t.Errorf("%s: trace streams diverge at byte %d of %d/%d", label, i, len(got.trace), len(ref.trace))
	}
}

// TestFabricConformance is the acceptance criterion of the fabric
// subsystem: a 2x2 mesh, four cubes, driven over the interleave — result
// digest, engine state digest, fabric traffic digest and the full text
// trace stream are bit-identical for Workers in {1, 4, 16}, with and
// without fault injection.
func TestFabricConformance(t *testing.T) {
	n := uint64(1500)
	if testing.Short() {
		n = 400
	}
	spec := mesh2x2()
	for _, fc := range []struct {
		name string
		cfg  func(workers int) core.Config
	}{
		{"clean", cubeConfig},
		{"fault", faultyConfig},
	} {
		t.Run(fc.name, func(t *testing.T) {
			ref := fabricRun(t, spec, fc.cfg(1), n)
			if ref.totals.IntercubePackets == 0 {
				t.Fatalf("no inter-cube traffic: %+v", ref.totals)
			}
			if ref.totals.Hops == 0 {
				t.Fatalf("no link crossings: %+v", ref.totals)
			}
			if fc.name == "fault" && ref.res.Errors == 0 && ref.stateDigest == fabricRun(t, spec, cubeConfig(1), n).stateDigest {
				t.Fatal("fault injection changed nothing observable")
			}
			for _, w := range []int{4, 16} {
				got := fabricRun(t, spec, fc.cfg(w), n)
				compareOut(t, fmt.Sprintf("%s Workers=%d", fc.name, w), ref, got)
			}
		})
	}
}

// TestFabricTraceCarriesCubeIDs checks the trace stream names every
// cube, not just the injection cube — events are attributable in a
// multi-cube system.
func TestFabricTraceCarriesCubeIDs(t *testing.T) {
	out := fabricRun(t, mesh2x2(), cubeConfig(2), 800)
	sc := trace.NewScanner(bytes.NewReader(out.trace))
	seen := make(map[int]bool)
	for sc.Scan() {
		seen[sc.Event().Dev] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for cube := 0; cube < 4; cube++ {
		if !seen[cube] {
			t.Errorf("trace stream has no events from cube %d", cube)
		}
	}
}

// TestFabricTotalsShape sanity-checks the traffic census against the
// run's own counters: every request lands exactly once, the link census
// covers each mesh cable once, and remote completions match the
// off-cube delivery count.
func TestFabricTotalsShape(t *testing.T) {
	const n = 1200
	out := fabricRun(t, mesh2x2(), cubeConfig(2), n)
	tls := out.totals
	if len(tls.Cubes) != 4 {
		t.Fatalf("%d cube entries, want 4", len(tls.Cubes))
	}
	var delivered, modes uint64
	for _, cs := range tls.Cubes {
		delivered += cs.Delivered
		modes += cs.Modes
	}
	if delivered+modes != n {
		t.Errorf("cubes delivered %d + modes %d, want %d requests", delivered, modes, n)
	}
	// A 2x2 mesh has exactly 4 cables, each carrying traffic both ways
	// under a uniform random workload.
	if len(tls.Links) != 4 {
		t.Fatalf("%d link entries, want 4: %+v", len(tls.Links), tls.Links)
	}
	// Dimension-order routing from inject cube 0 goes X first, so the
	// 0-1, 0-2 and 1-3 cables carry requests while 2-3 may stay idle;
	// require at least three busy cables rather than all four.
	busy := 0
	for _, lu := range tls.Links {
		if lu.FlitsAB > 0 || lu.FlitsBA > 0 {
			busy++
		}
	}
	if busy < 3 {
		t.Errorf("only %d of 4 cables carried traffic: %+v", busy, tls.Links)
	}
	if tls.Hops < tls.IntercubePackets {
		t.Errorf("hops %d < inter-cube packets %d", tls.Hops, tls.IntercubePackets)
	}
	if got := out.res.RemoteLatency.Count(); got == 0 {
		t.Error("no remote completions observed by the driver")
	}
}

// TestFabricSuspendResume suspends a fabric run mid-flight, serializes
// the checkpoint through JSON, resumes it in a freshly built system and
// requires every digest to match the uninterrupted run — checkpoints
// compose across cubes including in-flight inter-cube packets.
func TestFabricSuspendResume(t *testing.T) {
	const n = 1000
	spec := mesh2x2()
	ref := fabricRun(t, spec, faultyConfig(2), n)

	build := func() *System {
		sys, err := Build(spec, faultyConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// Suspend once the clock passes 50 cycles; capture the final
	// checkpoint through a JSON round trip, as the server store would.
	var saved *host.Checkpoint
	susSys, susOpts := build(), host.Options{}
	susOpts.Interrupt = func() error {
		if susSys.Engine().Clk() >= 50 {
			return host.ErrSuspended
		}
		return nil
	}
	susOpts.Checkpoint = func(ck *host.Checkpoint) error {
		raw, err := json.Marshal(ck)
		if err != nil {
			return err
		}
		saved = new(host.Checkpoint)
		return json.Unmarshal(raw, saved)
	}
	susD, err := susSys.NewDriver(susOpts)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewRandomAccess(11, susSys.Capacity(), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := susD.Run(gen, n); !errors.Is(err, host.ErrSuspended) {
		t.Fatalf("suspended run returned %v, want ErrSuspended", err)
	}
	if saved == nil {
		t.Fatal("no checkpoint delivered on suspend")
	}

	resSys := build()
	resD, err := resSys.NewDriver(host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := workload.NewRandomAccess(11, resSys.Capacity(), 64, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := resD.Resume(gen2, n, saved)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := eval.ResultDigest(res), ref.resultDigest; got != want {
		t.Errorf("resumed result digest %016x, want %016x", got, want)
	}
	if got, want := resSys.Engine().StateDigest(), ref.stateDigest; got != want {
		t.Errorf("resumed state digest %016x, want %016x", got, want)
	}
	if got, want := resSys.Totals().Digest(), ref.totals.Digest(); got != want {
		t.Errorf("resumed fabric digest %016x, want %016x\n got %+v\nwant %+v",
			got, want, resSys.Totals(), ref.totals)
	}
}

// TestBuildRejectsBadSpec pins that construction surfaces spec errors.
func TestBuildRejectsBadSpec(t *testing.T) {
	if _, err := Build(fabric.Spec{Topology: "blob"}, cubeConfig(1)); err == nil {
		t.Error("bad topology built")
	}
	if _, err := Build(fabric.Spec{Topology: fabric.TopoMesh, Rows: 1, Cols: 1}, cubeConfig(1)); err == nil {
		t.Error("1x1 mesh built")
	}
}

// TestDetachedChannels pins the multi-object contract: channels run
// detached and their per-channel results match running each alone.
func TestDetachedChannels(t *testing.T) {
	const chans, n = 2, 300
	cfg := cubeConfig(1)
	mk := func(ch int) workload.Generator {
		g, err := workload.NewRandomAccess(uint32(ch+1), 1<<30, 64, 50)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cs, err := BuildChannels(chans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunDetached(cs, mk, n, host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ch := 0; ch < chans; ch++ {
		solo, err := BuildChannels(1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := host.NewDriver(solo[0], host.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.Run(mk(ch), n)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := eval.ResultDigest(got[ch]), eval.ResultDigest(want); g != w {
			t.Errorf("channel %d digest %016x, want solo %016x", ch, g, w)
		}
	}
}

func TestBuildChannelsRejectsBadConfig(t *testing.T) {
	bad := cubeConfig(1)
	bad.NumVaults = 3
	if _, err := BuildChannels(2, bad); err == nil {
		t.Error("accepted bad channel config")
	}
}

// channelConfig is the per-channel object of the multi-channel tests.
func channelConfig() core.Config {
	return core.Config{
		NumDevs: 1, NumLinks: 4, NumVaults: 16, QueueDepth: 16,
		NumBanks: 8, NumDRAMs: 20, CapacityGB: 2, XbarDepth: 32,
	}
}

// randomChannels returns a generator factory giving channel ch a random
// access stream seeded base+ch.
func randomChannels(t *testing.T, base uint32) func(ch int) workload.Generator {
	return func(ch int) workload.Generator {
		g, err := workload.NewRandomAccess(base+uint32(ch), 1<<30, 64, 50)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

// runChannels builds chans detached channels and runs n requests on each.
func runChannels(t *testing.T, chans int, mk func(ch int) workload.Generator, n uint64) []host.Result {
	t.Helper()
	cs, err := BuildChannels(chans, channelConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunDetached(cs, mk, n, host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != chans {
		t.Fatalf("%d channel results, want %d", len(res), chans)
	}
	return res
}

// aggregateThroughput is requests per cycle of the slowest channel: the
// channels run concurrently in their own clock domains.
func aggregateThroughput(res []host.Result) float64 {
	var cycles, sent uint64
	for _, r := range res {
		cycles = max(cycles, r.Cycles)
		sent += r.Sent
	}
	if cycles == 0 {
		return 0
	}
	return float64(sent) / float64(cycles)
}

// TestBuildChannelsDistinct pins that every channel is its own object
// with every link of its device wired to the host.
func TestBuildChannelsDistinct(t *testing.T) {
	cfg := channelConfig()
	cs, err := BuildChannels(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 2 {
		t.Fatalf("BuildChannels(2) returned %d engines", len(cs))
	}
	if cs[0] == nil || cs[1] == nil {
		t.Fatal("channels missing")
	}
	if cs[0] == cs[1] {
		t.Error("channels share an object")
	}
	for ch, h := range cs {
		if got := len(h.Topology().HostLinks(0)); got != cfg.NumLinks {
			t.Errorf("channel %d: %d host links, want %d", ch, got, cfg.NumLinks)
		}
	}
}

// TestDetachedMatchesSerial pins that running channels in goroutines
// produces exactly the results of running the same objects serially,
// each built independently: the objects share nothing.
func TestDetachedMatchesSerial(t *testing.T) {
	const chans, n = 4, 1500
	mk := randomChannels(t, 100)
	parallel := runChannels(t, chans, mk, n)
	for ch := 0; ch < chans; ch++ {
		h, err := eval.BuildSimple(channelConfig())
		if err != nil {
			t.Fatal(err)
		}
		d, err := host.NewDriver(h, host.Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := d.Run(mk(ch), n)
		if err != nil {
			t.Fatal(err)
		}
		if serial.Cycles != parallel[ch].Cycles || serial.Engine != parallel[ch].Engine {
			t.Errorf("channel %d diverged: serial %d cycles, parallel %d",
				ch, serial.Cycles, parallel[ch].Cycles)
		}
	}
}

// TestDetachedAggregates pins the per-channel results a multi-channel
// run aggregates: every request sent without error, one latency sample
// per request, and a slowest-channel wall clock.
func TestDetachedAggregates(t *testing.T) {
	const chans, n = 4, 2000
	res := runChannels(t, chans, randomChannels(t, 1), n)
	var sent, cycles uint64
	var lat stats.Histogram
	for i, r := range res {
		if r.Sent != n || r.Errors != 0 {
			t.Errorf("channel %d: sent %d, errors %d", i, r.Sent, r.Errors)
		}
		sent += r.Sent
		cycles = max(cycles, r.Cycles)
		lat.Merge(&r.Latency)
	}
	if sent != chans*n {
		t.Errorf("requests = %d", sent)
	}
	for i, r := range res {
		if r.Cycles > cycles {
			t.Errorf("aggregate cycles %d below channel %d's %d", cycles, i, r.Cycles)
		}
	}
	if lat.Count() != chans*n {
		t.Errorf("merged latency count = %d", lat.Count())
	}
	if aggregateThroughput(res) <= 0 {
		t.Error("no throughput")
	}
}

// TestDetachedChannelScaling pins that aggregate throughput scales with
// channel count for equal-length per-channel runs: wall cycles stay
// flat while requests multiply.
func TestDetachedChannelScaling(t *testing.T) {
	const n = 2000
	one := aggregateThroughput(runChannels(t, 1, randomChannels(t, 1), n))
	four := aggregateThroughput(runChannels(t, 4, randomChannels(t, 1), n))
	if four < 3*one {
		t.Errorf("4-channel throughput %.1f not ~4x 1-channel %.1f", four, one)
	}
}
