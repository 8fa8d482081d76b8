package eval

import (
	"testing"

	"hmcsim/internal/core"
	"hmcsim/internal/fault"
	"hmcsim/internal/host"
)

// runWorkers executes the random access harness against cfg with the
// given worker count and returns the final architectural state digest,
// the result digest and the raw result.
func runWorkers(t *testing.T, cfg core.Config, workers int, requests uint64) (uint64, uint64, host.Result) {
	t.Helper()
	cfg.Workers = workers
	h, err := BuildSimple(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := RandomWorkload(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := host.NewDriver(h, host.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(gen, requests)
	if err != nil {
		t.Fatal(err)
	}
	return h.StateDigest(), ResultDigest(res), res
}

func TestTableIWorkersConformance(t *testing.T) {
	// The end-to-end determinism guarantee: the full Table I harness —
	// driver, workload generator and engine together — produces
	// bit-identical StateDigest and ResultDigest values for every worker
	// count, on all four paper configurations, at a ~50k-cycle scale.
	// Request counts are sized per configuration to cross that scale
	// (throughput differs by config; see Table I). The full scale costs
	// minutes of CPU, so -short and race-detector runs use 1/40 of it —
	// the digest comparison is scale-independent.
	requests := []uint64{6_600_000, 10_800_000, 12_000_000, 21_000_000}
	var minCycles uint64 = 50_000
	if testing.Short() || raceEnabled {
		for i := range requests {
			requests[i] /= 40
		}
		minCycles /= 40
	}
	for i, cfg := range core.Table1Configs() {
		refState, refResult, refRes := runWorkers(t, cfg, 1, requests[i])
		if refRes.Cycles < minCycles {
			t.Errorf("%v: only %d cycles simulated, want >= %d (undersized workload)",
				cfg, refRes.Cycles, minCycles)
		}
		for _, w := range []int{2, 3, 8} {
			gotState, gotResult, _ := runWorkers(t, cfg, w, requests[i])
			if gotState != refState {
				t.Errorf("%v Workers=%d: StateDigest %#x, want %#x", cfg, w, gotState, refState)
			}
			if gotResult != refResult {
				t.Errorf("%v Workers=%d: ResultDigest %#x, want %#x", cfg, w, gotResult, refResult)
			}
		}
	}
}

func TestTableIWorkersFaultConformance(t *testing.T) {
	// Sharded fault determinism at the harness level: transient link
	// faults and vault faults fire on the same transfers whether the
	// vault pipeline runs serially or on four workers.
	cfg := core.Table1Configs()[0]
	cfg.Fault = fault.Config{TransientPPM: 5000, VaultPPM: 2000, Seed: 31, MaxRetries: 6}
	refState, refResult, refRes := runWorkers(t, cfg, 1, 200_000)
	if refRes.Engine.PoisonedReads == 0 || refRes.Engine.LinkRetransmits == 0 {
		t.Fatalf("fault workload fired no faults: %+v", refRes.Engine)
	}
	gotState, gotResult, _ := runWorkers(t, cfg, 4, 200_000)
	if gotState != refState {
		t.Errorf("StateDigest %#x, want %#x", gotState, refState)
	}
	if gotResult != refResult {
		t.Errorf("ResultDigest %#x, want %#x", gotResult, refResult)
	}
}

func TestTableIConcurrentOuterLoop(t *testing.T) {
	// The concurrent outer loop over the four configurations changes
	// wall-clock behaviour only: rows stay in Table I order and carry
	// identical results.
	serial, err := RunTableIOpts(TableIOpts{Requests: 50_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	conc, err := RunTableIOpts(TableIOpts{Requests: 50_000, Seed: 3, Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(conc.Rows) != len(serial.Rows) {
		t.Fatalf("%d rows, want %d", len(conc.Rows), len(serial.Rows))
	}
	for i := range serial.Rows {
		if conc.Rows[i].Config.String() != serial.Rows[i].Config.String() {
			t.Errorf("row %d config %v, want %v (order not preserved)",
				i, conc.Rows[i].Config, serial.Rows[i].Config)
		}
		got, want := ResultDigest(conc.Rows[i].Result), ResultDigest(serial.Rows[i].Result)
		if got != want {
			t.Errorf("row %d ResultDigest %#x, want %#x", i, got, want)
		}
	}
	if conc.BankSpeedup != serial.BankSpeedup || conc.LinkSpeedup != serial.LinkSpeedup {
		t.Errorf("speedups diverged: %+v vs %+v", conc, serial)
	}
}
