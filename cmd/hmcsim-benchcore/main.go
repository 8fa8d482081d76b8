// Command hmcsim-benchcore converts `go test -bench -benchmem` output on
// stdin into the committed BENCH_core.json record: one entry per
// benchmark with ns/op, B/op, allocs/op and any custom metrics, plus the
// speedup of each entry against an optional committed baseline.
//
//	go test -run '^$' -bench 'TableI|ClockSaturated' -benchmem . |
//	    hmcsim-benchcore -out BENCH_core.json
//
// The record is the hot-path performance contract of the engine: the
// four Table I configurations measure end-to-end cycles/sec, and
// BenchmarkClockSaturated pins the steady-state allocation count of the
// Clock path (expected: zero).
//
// With -compare the command acts as a regression gate instead of a
// recorder: fresh bench output on stdin is compared against the named
// committed record, and any benchmark whose ns/op exceeds its committed
// value by more than -tolerance (default 10%) fails the run. This is the
// `make bench-compare` target, which guards the Table I, saturated
// clock and sparse idle-skip rows against regressions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// entry is one parsed benchmark result line.
type entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsOp   *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
	SpeedupX   float64            `json:"speedup_vs_baseline,omitempty"`
}

type record struct {
	// Note explains what the record asserts.
	Note string `json:"note"`
	// BaselineNsPerOp is the pre-optimization ns/op of each benchmark
	// (the free-list/ring-buffer refactor's starting point), used to
	// derive the speedup column.
	BaselineNsPerOp map[string]float64 `json:"baseline_ns_per_op,omitempty"`
	Benchmarks      []entry            `json:"benchmarks"`
}

// baselines holds the pre-refactor measurements of the tracked
// benchmarks (ns/op, same machine class, go test -benchmem).
var baselines = map[string]float64{
	"TableI_4Link8Bank2GB":  31442053,
	"TableI_4Link16Bank4GB": 33125430,
	"TableI_8Link8Bank4GB":  40940699,
	"TableI_8Link16Bank8GB": 50340798,
	"ClockSaturated":        445142,
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output path for the JSON record")
	compare := flag.String("compare", "", "compare stdin against this committed record instead of writing; exit nonzero on regression")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional ns/op regression in -compare mode")
	flag.Parse()

	rec := record{
		Note: "core hot-path contract: >=2x vs baseline on the Table I configs, " +
			"0 allocs/op in the saturated clock loop. VaultStage/w=1 isolates " +
			"the serial bank-conflict and vault service stages (3 and 4). " +
			"The Sparse_* pairs measure the " +
			"event-wheel idle skip: each wheel row's speedup is derived from " +
			"its Walk twin (same simulation forced to walk every cycle) in the " +
			"same run, and the contract is >=5x.",
		BaselineNsPerOp: baselines,
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // preserve the raw output for the terminal
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		e, ok := parseLine(line)
		if !ok {
			continue
		}
		if base, have := baselines[e.Name]; have && e.NsPerOp > 0 {
			e.SpeedupX = round2(base / e.NsPerOp)
		}
		rec.Benchmarks = append(rec.Benchmarks, e)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rec.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	deriveWalkSpeedups(rec.Benchmarks)
	if *compare != "" {
		if err := compareRecord(*compare, rec.Benchmarks, *tolerance); err != nil {
			fatal(err)
		}
		return
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("hmcsim-benchcore: %d benchmarks -> %s\n", len(rec.Benchmarks), *out)
}

// deriveWalkSpeedups fills the speedup column of each benchmark whose
// "<name>Walk" twin appears in the same run: the twin forces the exact
// cycle-by-cycle walk over the identical simulation, so walk/wheel is
// the idle-skip speedup on this very machine — no committed baseline
// needed, and the pair can never drift apart the way a hardcoded
// constant would.
func deriveWalkSpeedups(entries []entry) {
	ns := make(map[string]float64, len(entries))
	for _, e := range entries {
		ns[e.Name] = e.NsPerOp
	}
	for i := range entries {
		if entries[i].SpeedupX != 0 {
			continue
		}
		if walk, ok := ns[entries[i].Name+"Walk"]; ok && entries[i].NsPerOp > 0 {
			entries[i].SpeedupX = round2(walk / entries[i].NsPerOp)
		}
	}
}

// compareRecord diffs fresh benchmark results against the committed
// record at path. Every fresh benchmark with a committed counterpart is
// checked; one regressing by more than the tolerance fails the run.
// Benchmarks present on only one side are reported but not fatal, so a
// committed record predating a new benchmark does not break the gate.
// Repeated runs of the same benchmark (go test -count N) collapse to
// the minimum ns/op — the standard noise filter for a shared machine,
// where the minimum is the least-perturbed measurement.
func compareRecord(path string, fresh []entry, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed record
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	old := make(map[string]float64, len(committed.Benchmarks))
	for _, e := range committed.Benchmarks {
		old[e.Name] = e.NsPerOp
	}
	best := make(map[string]float64, len(fresh))
	var order []string
	for _, e := range fresh {
		if min, seen := best[e.Name]; !seen || e.NsPerOp < min {
			if !seen {
				order = append(order, e.Name)
			}
			best[e.Name] = e.NsPerOp
		}
	}
	var regressions []string
	compared := 0
	for _, name := range order {
		base, have := old[name]
		if !have {
			fmt.Printf("hmcsim-benchcore: %-32s not in %s, skipped\n", name, path)
			continue
		}
		compared++
		ratio := best[name] / base
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			regressions = append(regressions, name)
		}
		fmt.Printf("hmcsim-benchcore: %-32s %12.0f -> %12.0f ns/op (%+.1f%%) %s\n",
			name, base, best[name], 100*(ratio-1), status)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark on stdin matches %s", path)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% vs %s: %s",
			len(regressions), 100*tolerance, path, strings.Join(regressions, ", "))
	}
	fmt.Printf("hmcsim-benchcore: %d benchmarks within %.0f%% of %s\n",
		compared, 100*tolerance, path)
	return nil
}

// parseLine decodes one testing.B result line: the benchmark name and
// iteration count followed by value/unit pairs ("14252978 ns/op",
// "99 allocs/op", "56.21 req/sim_cycle").
func parseLine(line string) (entry, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return entry{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i]
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e := entry{Name: name, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return entry{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			b := v
			e.BytesPerOp = &b
		case "allocs/op":
			a := v
			e.AllocsOp = &a
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return e, e.NsPerOp > 0
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hmcsim-benchcore:", err)
	os.Exit(1)
}
