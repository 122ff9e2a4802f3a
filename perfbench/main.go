// Command perfbench is the repository's benchmark. It runs one workload —
// trace-high, closed-fig17 or pprd-loopback, or all three in turn — checks
// the outputs, and prints the end-to-end metrics, or with --trace 1 the
// per-layer metrics measured by timing calls into each layer's public
// functions from here. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Earlier lines carry the host and build block, the workload parameters and
// the result digests. Any failed check makes the exit status 1.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// runConfig is what every workload receives: the seed its inputs are drawn
// from and how long to measure.
type runConfig struct {
	seed   uint64
	budget time.Duration
}

// report is one workload run's output.
type report struct {
	metrics map[string]float64
	ops     *tally
	info    map[string]any
}

func newReport() report {
	return report{metrics: map[string]float64{}, ops: &tally{}, info: map[string]any{}}
}

// overhead files a pass's end-to-end numbers under overhead.<name>.<mode>.
func overhead(dst map[string]float64, mode string, e2e map[string]float64) {
	for _, name := range []string{"run_s", "flows_per_s", "p50_ms", "p90_ms"} {
		dst["overhead."+name+"."+mode] = e2e[name]
	}
}

type workload struct {
	name   string
	run    func(runConfig) (report, error)
	traced func(runConfig) (report, error)
}

var workloads = []workload{
	{wTraceHigh, runTraceHigh, traceTraceHigh},
	{wFig17, runFig17, traceFig17},
	{wPprd, runPprd, tracePprd},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: trace-high, closed-fig17, pprd-loopback or all")
	seed := fs.Uint64("seed", 1, "seed the workload inputs are drawn from")
	seconds := fs.Int("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (trace-high, closed-fig17, pprd-loopback or all), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	catalogue := endToEnd
	if *trace == 1 {
		catalogue = perLayer
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	final := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range chosen {
		measure := w.run
		if *trace == 1 {
			measure = w.traced
		}
		rep, err := measure(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if *trace == 0 {
			rep.metrics["peak_rss_mb"] = peakRSSMB()
		}
		res := rep.result(catalogue)
		writeJSON(out, map[string]any{"report": map[string]any{
			"workload": w.name, "trace": *trace, "seed": *seed, "seconds": *seconds,
			"host": hostBlock(), "info": rep.info,
			"fail_ratio": rep.ops.failRatio(), "failures": rep.ops.reasons,
		}})
		printTable(stderr, w.name, catalogue, res)
		if len(chosen) == 1 {
			final = res
			break
		}
		// Several workloads in one process: one result line each, then a
		// combined line whose metric names carry the workload.
		writeJSON(out, res)
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			final.Metrics[k+"@"+w.name] = v
		}
	}
	writeJSON(out, final)
	if !final.Correct {
		return 1
	}
	return 0
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// result keeps exactly the catalogue's metrics; one the workload does not
// exercise reads 0.
func (r report) result(catalogue []metric) result {
	attempted, failed := r.ops.counts()
	res := result{Correct: failed == 0 && attempted > 0, Attempted: max(attempted, 1), Failed: failed,
		Metrics: map[string]value{}}
	if attempted == 0 {
		res.Failed = 1
	}
	for _, m := range catalogue {
		res.Metrics[m.name] = value{Value: r.metrics[m.name], Unit: m.unit}
	}
	return res
}

func writeJSON(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value written here is plain data
	}
	w.Write(append(b, '\n'))
}

// printTable writes a human-readable copy of the metrics.
func printTable(w io.Writer, workload string, catalogue []metric, res result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", workload, res.Correct, res.Attempted, res.Failed)
	for _, m := range catalogue {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s %s\n", m.name, res.Metrics[m.name].Value, m.unit, m.moves)
	}
}

// hostBlock records which machine and build produced the numbers.
func hostBlock() map[string]any {
	h := map[string]any{
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"num_cpu":      runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"go_version":   runtime.Version(),
		"goos":         runtime.GOOS,
		"goarch":       runtime.GOARCH,
		"vcs_revision": "unknown",
		"vcs_modified": "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["vcs_revision"] = s.Value
			case "vcs.modified":
				h["vcs_modified"] = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the CPU model name from /proc/cpuinfo where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
