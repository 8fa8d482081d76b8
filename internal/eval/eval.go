// Package eval implements the paper's evaluation harness: the Table I
// simulation-runtime experiment, the Figure 5 per-cycle trace collection,
// and the ablation sweeps over queue depths, block sizes and link
// selection policies.
package eval

import (
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"

	"hmcsim/internal/core"
	"hmcsim/internal/host"
	"hmcsim/internal/stats"
	"hmcsim/internal/topo"
	"hmcsim/internal/trace"
	"hmcsim/internal/workload"
)

// DefaultRequests is the scaled-down default request count. The paper's
// full experiment uses 33,554,432 (1<<25) requests; the default keeps runs
// interactive while preserving the reported shape.
const DefaultRequests = 1 << 20

// PaperRequests is the request count of the paper's evaluation.
const PaperRequests = 1 << 25

// BuildSimple constructs an HMC object for cfg with every link of every
// device attached to the host (the paper's single-device evaluation
// wiring).
func BuildSimple(cfg core.Config) (*core.HMC, error) {
	return BuildSimpleWithOptions(cfg)
}

// BuildSimpleWithOptions is BuildSimple with extra construction options
// (tracing, fault overrides) threaded through core.NewWithOptions.
func BuildSimpleWithOptions(cfg core.Config, opts ...core.Option) (*core.HMC, error) {
	t, err := simpleTopology(cfg)
	if err != nil {
		return nil, err
	}
	return core.NewWithOptions(cfg, append([]core.Option{core.WithTopology(t)}, opts...)...)
}

// simpleTopology prebuilds the BuildSimple wiring as a topology value,
// for use with core.WithTopology.
func simpleTopology(cfg core.Config) (*topo.Topology, error) {
	t, err := topo.New(cfg.NumDevs, cfg.NumLinks, cfg.HostID())
	if err != nil {
		return nil, err
	}
	for d := 0; d < cfg.NumDevs; d++ {
		for l := 0; l < cfg.NumLinks; l++ {
			if err := t.ConnectHost(d, l); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// RandomWorkload returns the paper's random access workload for cfg:
// 64-byte requests with a 50/50 read/write mixture over the device
// capacity, randomness from the glibc linear congruential generator.
func RandomWorkload(cfg core.Config, seed uint32) (workload.Generator, error) {
	return workload.NewRandomAccess(seed, uint64(cfg.CapacityGB)<<30, 64, 50)
}

// Table1Row is one measured device configuration.
type Table1Row struct {
	Config core.Config
	Result host.Result
}

// Table1Result aggregates the four configurations of Table I plus the
// derived speedup figures the paper reports.
type Table1Result struct {
	Requests uint64
	Rows     []Table1Row
	// BankSpeedup is the average speedup from doubling the bank count at
	// a fixed link count (the paper reports 1.7x).
	BankSpeedup float64
	// LinkSpeedup is the average speedup from doubling the link count at
	// a fixed bank count (the paper reports 2.319x).
	LinkSpeedup float64
}

// TableIOpts parameterizes RunTableIOpts beyond the request count and
// workload seed.
type TableIOpts struct {
	// Requests is the per-configuration request count.
	Requests uint64
	// Seed seeds the random access workload.
	Seed uint32
	// Concurrent runs the four configurations concurrently instead of
	// back to back. The four simulations are independent, so the rows —
	// kept in Table I order — are identical either way.
	Concurrent bool
}

// RunTableI executes the paper's Table I experiment: the random access
// test harness against the four device configurations, reporting the
// simulated runtime in clock cycles for each.
func RunTableI(numRequests uint64, seed uint32) (Table1Result, error) {
	return RunTableIOpts(TableIOpts{Requests: numRequests, Seed: seed})
}

// RunTableIOpts is RunTableI with the full option set, including a
// concurrent outer loop over the four configurations.
func RunTableIOpts(o TableIOpts) (Table1Result, error) {
	cfgs := core.Table1Configs()
	res := Table1Result{Requests: o.Requests, Rows: make([]Table1Row, len(cfgs))}
	run := func(i int) error {
		cfg := cfgs[i]
		row, err := RunRandom(cfg, o.Requests, o.Seed, nil)
		if err != nil {
			return fmt.Errorf("eval: %v: %w", cfg, err)
		}
		res.Rows[i] = Table1Row{Config: cfg, Result: row}
		return nil
	}
	if o.Concurrent {
		var wg sync.WaitGroup
		errs := make([]error, len(cfgs))
		for i := range cfgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = run(i)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return res, err
			}
		}
	} else {
		for i := range cfgs {
			if err := run(i); err != nil {
				return res, err
			}
		}
	}
	c := func(i int) float64 { return float64(res.Rows[i].Result.Cycles) }
	// Rows: 0 = 4L/8B, 1 = 4L/16B, 2 = 8L/8B, 3 = 8L/16B.
	res.BankSpeedup = (c(0)/c(1) + c(2)/c(3)) / 2
	res.LinkSpeedup = (c(0)/c(2) + c(1)/c(3)) / 2
	return res, nil
}

// RunRandom runs the random access harness against one configuration. A
// non-nil tracer is installed with the performance mask before the run.
func RunRandom(cfg core.Config, numRequests uint64, seed uint32, tracer trace.Tracer) (host.Result, error) {
	h, err := BuildSimpleWithOptions(cfg, core.WithTrace(tracer, trace.MaskPerf))
	if err != nil {
		return host.Result{}, err
	}
	gen, err := RandomWorkload(cfg, seed)
	if err != nil {
		return host.Result{}, err
	}
	d, err := host.NewDriver(h, host.Options{})
	if err != nil {
		return host.Result{}, err
	}
	return d.Run(gen, numRequests)
}

// Format renders the result in the layout of the paper's Table I.
func (r Table1Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Simulation Runtime in Clock Cycles (%d requests, 64-byte, 50/50 R/W)\n", r.Requests)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Device Configuration\tSimulated Runtime in Cycles\tReq/Cycle")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\n", row.Config, row.Result.Cycles, row.Result.Throughput())
	}
	tw.Flush()
	fmt.Fprintf(&sb, "\nAverage speedup from doubling banks: %.3fx (paper: 1.700x)\n", r.BankSpeedup)
	fmt.Fprintf(&sb, "Average speedup from doubling links: %.3fx (paper: 2.319x)\n", r.LinkSpeedup)
	return sb.String()
}

// Figure5Run couples a Figure 5 collector with the run that produced it.
type Figure5Run struct {
	Config    core.Config
	Collector *stats.Fig5Collector
	Result    host.Result
}

// RunFigure5 executes the random access harness with full performance
// tracing enabled and returns the reconstructed Figure 5 series: per-vault
// bank conflicts, reads and writes, plus device-wide crossbar request
// stalls and latency penalty events, per sampling interval.
func RunFigure5(cfg core.Config, numRequests uint64, seed uint32, interval uint64) (Figure5Run, error) {
	col := stats.NewFig5Collector(0, cfg.NumVaults, interval)
	res, err := RunRandom(cfg, numRequests, seed, col)
	if err != nil {
		return Figure5Run{}, err
	}
	col.Flush()
	return Figure5Run{Config: cfg, Collector: col, Result: res}, nil
}

// RunFigure5All executes the Figure 5 collection for all four Table I
// configurations, matching the paper's 2x2 figure layout.
func RunFigure5All(numRequests uint64, seed uint32, interval uint64) ([]Figure5Run, error) {
	var out []Figure5Run
	for _, cfg := range core.Table1Configs() {
		run, err := RunFigure5(cfg, numRequests, seed, interval)
		if err != nil {
			return nil, fmt.Errorf("eval: %v: %w", cfg, err)
		}
		out = append(out, run)
	}
	return out, nil
}

// FormatFigure5Comparison summarizes per-configuration event rates across
// the four Figure 5 runs: the paper's observation that crossbar stalls
// and latency events are similar in all tested configurations becomes
// directly checkable.
func FormatFigure5Comparison(runs []Figure5Run) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Configuration\tCycles\tConflicts/req\tXbarStalls/req\tLatency/req")
	for _, r := range runs {
		tot := r.Collector.Totals()
		var conflicts uint64
		for v := 0; v < r.Config.NumVaults; v++ {
			conflicts += uint64(tot.Conflicts[v])
		}
		n := float64(r.Result.Sent)
		fmt.Fprintf(tw, "%v\t%d\t%.3f\t%.4f\t%.3f\n",
			r.Config, r.Result.Cycles,
			float64(conflicts)/n, float64(tot.XbarStalls)/n, float64(tot.Latency)/n)
	}
	tw.Flush()
	return sb.String()
}

// SweepRow is one point of a one-dimensional ablation sweep.
type SweepRow struct {
	Label  string
	Value  int
	Result host.Result
}

// QueueDepthSweep measures the random access harness across vault queue
// depths (the "flexible queuing" requirement's tuning knob).
func QueueDepthSweep(base core.Config, depths []int, numRequests uint64, seed uint32) ([]SweepRow, error) {
	var out []SweepRow
	for _, d := range depths {
		cfg := base
		cfg.QueueDepth = d
		res, err := RunRandom(cfg, numRequests, seed, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepRow{Label: "queue-depth", Value: d, Result: res})
	}
	return out, nil
}

// XbarDepthSweep measures across crossbar queue depths.
func XbarDepthSweep(base core.Config, depths []int, numRequests uint64, seed uint32) ([]SweepRow, error) {
	var out []SweepRow
	for _, d := range depths {
		cfg := base
		cfg.XbarDepth = d
		res, err := RunRandom(cfg, numRequests, seed, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepRow{Label: "xbar-depth", Value: d, Result: res})
	}
	return out, nil
}

// BlockSizeSweep measures across address-map maximum block sizes with a
// matching request size, exercising the specification's request-size
// flexibility (Section III-B).
func BlockSizeSweep(base core.Config, sizes []int, numRequests uint64, seed uint32) ([]SweepRow, error) {
	var out []SweepRow
	for _, size := range sizes {
		cfg := base
		cfg.BlockSize = size
		h, err := BuildSimple(cfg)
		if err != nil {
			return nil, err
		}
		reqSize := size
		if reqSize > 128 {
			reqSize = 128 // the packet protocol caps payloads at 128 bytes
		}
		gen, err := workload.NewRandomAccess(seed, uint64(cfg.CapacityGB)<<30, reqSize, 50)
		if err != nil {
			return nil, err
		}
		d, err := host.NewDriver(h, host.Options{})
		if err != nil {
			return nil, err
		}
		res, err := d.Run(gen, numRequests)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepRow{Label: "block-size", Value: size, Result: res})
	}
	return out, nil
}

// FaultSweep measures the random access harness across injected transient
// link fault rates (error simulation): retransmissions rise and effective
// throughput falls as the fault rate grows.
func FaultSweep(base core.Config, ppms []int, numRequests uint64, seed uint32) ([]SweepRow, error) {
	var out []SweepRow
	for _, ppm := range ppms {
		cfg := base
		cfg.Fault.TransientPPM = ppm
		cfg.Fault.Seed = uint64(seed)
		res, err := RunRandom(cfg, numRequests, seed, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepRow{Label: "fault-ppm", Value: ppm, Result: res})
	}
	return out, nil
}

// PassingComparison runs the harness with strict-FIFO crossbars and with
// the specification's reordering point enabled.
func PassingComparison(base core.Config, numRequests uint64, seed uint32) (strict, passing host.Result, err error) {
	cfg := base
	cfg.XbarPassing = false
	strict, err = RunRandom(cfg, numRequests, seed, nil)
	if err != nil {
		return
	}
	cfg.XbarPassing = true
	passing, err = RunRandom(cfg, numRequests, seed, nil)
	return
}

// LinkSelection compares the paper's round-robin injection with
// locality-aware and single-link policies (the Section VI corollary).
func LinkSelection(cfg core.Config, numRequests uint64, seed uint32) (map[string]host.Result, error) {
	out := make(map[string]host.Result)
	policies := []struct {
		name string
		mk   func(h *core.HMC) workload.LinkSelector
	}{
		{"round-robin", func(*core.HMC) workload.LinkSelector { return nil }},
		{"locality", func(h *core.HMC) workload.LinkSelector {
			return &workload.Locality{Map: h.Device(0).Map, NumLinks: cfg.NumLinks}
		}},
		{"fixed", func(*core.HMC) workload.LinkSelector { return workload.Fixed{Link: 0} }},
	}
	for _, p := range policies {
		h, err := BuildSimple(cfg)
		if err != nil {
			return nil, err
		}
		gen, err := RandomWorkload(cfg, seed)
		if err != nil {
			return nil, err
		}
		d, err := host.NewDriver(h, host.Options{Select: p.mk(h)})
		if err != nil {
			return nil, err
		}
		res, err := d.Run(gen, numRequests)
		if err != nil {
			return nil, err
		}
		out[p.name] = res
	}
	return out, nil
}
