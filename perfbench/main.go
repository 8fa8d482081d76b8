// Command perfbench is the repository's benchmark. One invocation runs
// one named workload for a fixed time and prints, as the last line of
// standard output, a JSON object with the correctness verdict, the
// operations attempted and failed, and the metrics: the end-to-end set
// without tracing, the per-layer set with --trace 1. The line before it
// records the run's settings, CPU count, GOMAXPROCS and Go version.
//
//	bash perfbench/run.sh --workload table1_dense --seed 1 --seconds 20 --trace 0
//
// Workloads (BENCHMARK.json says why each exists):
//
//   - table1_dense: the paper's Table I harness over the four device
//     configurations on the serial engine; injection is saturated.
//   - sparse_chase: a pointer chase paced at one access per 500 cycles
//     on config 1; almost every cycle is bulk-skipped by the wheel.
//   - fabric_mesh: a 2x2 mesh of config-1 cubes with random traffic
//     injected at cube 0, sharded over the worker pool.
//   - serve_durable: the HTTP job service over a fsynced journal with
//     the result cache on, driven by two closed-loop tenant clients.
//
// The metric catalogue, with the module metric to end-to-end metric to
// workload map, is metrics.json; pinned simulation digests are pins.json
// (regenerate an entry with --pins). The load stays inside one process
// and uses no more engine workers, service workers or HTTP clients than
// the host has CPUs.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"

	"hmcsim/internal/eval"
)

//go:embed metrics.json
var catalogJSON []byte

// metricDef is one catalogue entry of metrics.json.
type metricDef struct {
	Name       string   `json:"name"`
	Unit       string   `json:"unit"`
	Layer      string   `json:"layer"`
	Better     string   `json:"better"`
	Workloads  []string `json:"workloads"`
	Moves      []string `json:"moves"`
	On         []string `json:"on"`
	NoChangeOn []string `json:"no_change_on"`
	Doc        string   `json:"doc"`
}

func loadCatalog() ([]metricDef, error) {
	var c struct {
		Metrics []metricDef `json:"metrics"`
	}
	if err := json.Unmarshal(catalogJSON, &c); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return c.Metrics, nil
}

func (d metricDef) appliesTo(workload string) bool { return slices.Contains(d.Workloads, workload) }

// workloadNames lists the workloads BENCHMARK.json declares.
var workloadNames = []string{"table1_dense", "sparse_chase", "fabric_mesh", "serve_durable"}

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// workDir holds everything the run writes: store directories and
	// span files. It lies inside the checkout the benchmark runs from.
	workDir string
	// workers bounds engine workers, service workers and HTTP clients.
	workers int
}

// report collects one run's measurements and correctness verdicts.
type report struct {
	values    map[string]float64
	attempted int64
	failed    int64
	peakRSS   float64 // MB, see sampleRSS
	info      map[string]any
}

func newReport() *report {
	return &report{values: make(map[string]float64), info: make(map[string]any)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts one failed operation and explains it on standard error
// (the first few only, so a systematic failure cannot flood the log).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// assemble selects the metrics of the run's layer. Every workload
// reports every one of them: a metric the workload does not measure
// reports 0, and a metric it should measure but did not is an error.
func assemble(defs []metricDef, o options, rep *report) (result, error) {
	layer := "end_to_end"
	if o.traced {
		layer = "per_layer"
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		if d.Layer != layer {
			continue
		}
		v, ok := rep.values[d.Name]
		if !ok && d.appliesTo(o.workload) {
			return res, fmt.Errorf("metric %s was not measured on %s", d.Name, o.workload)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// seedInputs derives n workload seeds from the run seed (splitmix64), so
// the program only ever sees generated inputs.
func seedInputs(seed int64, n int) []uint32 {
	x := uint64(seed)
	out := make([]uint32, n)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		out[i] = uint32(z ^ z>>31)
	}
	return out
}

// Paper Table I speedups, and the scale of the model check: Table I at
// modelRequests per config for each of modelSeeds inputs, with cycles
// summed per config before the speedups are taken.
const (
	paperBankSpeedup = 1.700
	paperLinkSpeedup = 2.319
	modelRequests    = 1 << 14
	modelSeeds       = 4
)

// paperSpeedupErr runs the model check and returns the mean relative
// error of its bank and link speedups against the paper, in percent.
func paperSpeedupErr(seeds []uint32) (float64, error) {
	var c [4]float64 // 4L/8B, 4L/16B, 8L/8B, 8L/16B
	for _, seed := range seeds {
		t, err := eval.RunTableI(modelRequests, seed)
		if err != nil {
			return 0, err
		}
		for i, row := range t.Rows {
			c[i] += float64(row.Result.Cycles)
		}
	}
	bank := (c[0]/c[1] + c[2]/c[3]) / 2
	link := (c[0]/c[2] + c[1]/c[3]) / 2
	return (math.Abs(bank-paperBankSpeedup)/paperBankSpeedup + math.Abs(link-paperLinkSpeedup)/paperLinkSpeedup) / 2 * 100, nil
}

// sampleRSS raises peakRSS to the process's current resident memory
// that no file backs (statm resident minus shared), in MB. The
// executable's own pages are left out: how many of them are resident
// follows the host's page cache, not the program.
func (r *report) sampleRSS() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	var size, resident, shared int64
	if _, err := fmt.Sscan(string(b), &size, &resident, &shared); err != nil {
		return
	}
	r.peakRSS = max(r.peakRSS, float64((resident-shared)*int64(os.Getpagesize()))/(1<<20))
}

// cpuTime is the CPU time the process has used, in all its threads.
// Engine jobs are timed by it rather than by the wall clock: a
// simulation is deterministic work, and on a shared virtual machine the
// wall clock also counts the stalls in which the host ran someone else,
// which decide every tail percentile of a job of a few milliseconds.
func cpuTime() time.Duration { return clockTime(2) } // CLOCK_PROCESS_CPUTIME_ID

// threadTime is the CPU time the calling OS thread has used.
func threadTime() time.Duration { return clockTime(3) } // CLOCK_THREAD_CPUTIME_ID

func clockTime(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock ID and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

func run(o options) (result, *report, error) {
	defs, err := loadCatalog()
	if err != nil {
		return result{}, nil, err
	}
	rep := newReport()
	switch o.workload {
	case "table1_dense", "sparse_chase", "fabric_mesh":
		err = runEngine(o, rep)
	case "serve_durable":
		err = runServe(o, rep)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err != nil {
		return result{}, rep, err
	}
	if !o.traced {
		rep.set("peak_rss_mb", rep.peakRSS)
		pe, err := paperSpeedupErr(seedInputs(o.seed, modelSeeds))
		if err != nil {
			return result{}, rep, fmt.Errorf("model check: %w", err)
		}
		rep.set("paper_speedup_err_pct", pe)
		rep.info["model_requests_per_config"] = modelRequests * modelSeeds
	}
	rep.set("fail_frac", ratio(float64(rep.failed), float64(rep.attempted)))
	res, err := assemble(defs, o, rep)
	return res, rep, err
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "table1_dense", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per pass")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	pins := flag.Bool("pins", false, "print the pins.json entry of the workload and seed, then exit")
	flag.Parse()
	o.traced = trace == 1
	o.workDir = ".bench_build"
	o.workers = min(2, runtime.NumCPU())
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	if *pins {
		if err := printPins(o); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	start := time.Now()
	res, rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.info["workload"] = o.workload
	rep.info["seed"] = o.seed
	rep.info["trace"] = trace
	rep.info["nproc"] = runtime.NumCPU()
	rep.info["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.info["go"] = runtime.Version()
	rep.info["workers_cap"] = o.workers
	rep.info["wall_s"] = time.Since(start).Seconds()
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": rep.info}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}

// runDir makes a fresh directory for one run's files under workDir.
func runDir(o options, prefix string) (string, error) {
	base, err := filepath.Abs(filepath.Join(o.workDir, "tmp"))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, prefix)
}
