// Command perfbench is the repository benchmark. It runs one named workload
// against the public API of the internal packages, checks that every output
// is correct, and prints as its last line one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
//	perfbench --workload fl-sync|serve-open|train-serve --seed N --seconds S --trace 0|1
//
// End-to-end metrics come from untraced passes. A traced run repeats the
// measured work with a span around every call into a layer's public
// function, reports per-layer metrics and the tracing overhead (traced minus
// untraced wall time of the same work, as a share of the untraced), checks
// that the traced pass produced the same outputs as the untraced one, and
// writes the spans as Chrome trace-event JSON under .bench_build/traces.
//
// The workloads (see BENCHMARK.json for why each was chosen):
//
//   - fl-sync: HeteroSwitch on mobilenetv3-tiny over the Table-1
//     federation, N=100, K=20, B=10, E=1, lr 0.1, two workers, on the
//     synchronous streaming fl.Server.
//   - serve-open: an open-loop Poisson stream of single-image requests into
//     serve.Server.PredictInto from two callers, at two fixed rates, then a
//     rate ladder that finds the highest rate meeting a fixed p99 limit.
//   - train-serve: experiments.RunTrainServe jobs, the async fl.AsyncServer
//     publishing every window into a micro-batching serving store on one
//     virtual clock.
//
// The process uses at most two concurrent workers or callers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median.
const setupRepeats = 3

// runConfig is what the command line fixes for one run.
type runConfig struct {
	seed    uint64
	seconds float64
	trace   bool
}

// result is one workload run: its metrics by name, the operations it
// attempted, the failed correctness checks, and the tracer of the traced
// pass (nil when untraced).
type result struct {
	work      string // what the timed passes ran, printed with the result
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string // the first maxFailureNotes messages
	tr        *tracer
}

const maxFailureNotes = 20

// check counts a failed operation when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig) (*result, error){
	"fl-sync":     runFLSync,
	"serve-open":  runServeOpen,
	"train-serve": runTrainServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: fl-sync, serve-open or train-serve")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measured seconds per pass (sizes the fixed work of the run)")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass, 0 end-to-end metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := w(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.metrics["peak_rss_mb"] = peakRSSMB()

	fp := fingerprint()
	if rc.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := res.tr.writeChrome(path, fp); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
			return 1
		}
		fmt.Println("trace:", path)
	}
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fpJSON, _ := json.Marshal(fp) // a map of strings always marshals
	fmt.Println("work:", res.work)
	fmt.Println("fingerprint:", string(fpJSON))

	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	line, err := resultLine(res, defs, rc.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if _, err := fmt.Println(line); err != nil {
		return 1
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

// resultLine renders the final JSON object with the metrics in BENCHMARK.json
// order. An end-to-end metric missing from the result is a benchmark bug; a
// missing per-layer metric is a layer the workload does not exercise, and
// reads 0.
func resultLine(res *result, defs []metricDef, traced bool) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct":%t,"attempted":%d,"failed":%d,"metrics":{`, res.failed == 0, res.attempted, res.failed)
	for i, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !traced {
			return "", fmt.Errorf("workload did not measure %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%q:{"value":%s,"unit":%q}`, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}

// fingerprint identifies the machine and build a result came from.
func fingerprint() map[string]string {
	fp := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     "unknown",
		"backend":    tensor.ActiveBackend().String(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				fp["commit"] = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp["commit"] += "+dirty"
				}
			}
		}
	}
	return fp
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. The
// workloads free the garbage of each set-up repetition before the next
// (debug.FreeOSMemory), so the peak does not depend on when the collector
// last ran before the next set-up started.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quantile is the nearest-rank q-quantile of vs (sorted in place), 0 for
// none.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	return vs[min(max(int(math.Ceil(q*float64(len(vs))))-1, 0), len(vs)-1)]
}

// quantileMS is the nearest-rank q-quantile of ds in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = ms(d)
	}
	return quantile(vs, q)
}

func medianSeconds(ds []time.Duration) float64 { return quantileMS(ds, 0.5) / 1e3 }

// weightsDigest is FNV-1a over the float32 bit patterns of every parameter
// and state tensor, the witness that two passes trained the same model.
func weightsDigest(w nn.Weights) uint64 {
	h := uint64(14695981039346656037)
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range ts {
			for _, v := range t.Data() {
				bits := math.Float32bits(v)
				for s := 0; s < 32; s += 8 {
					h ^= uint64(bits>>s) & 0xff
					h *= 1099511628211
				}
			}
		}
	}
	return h
}

// weightBytes is the float32 payload size of one weight set, the unit of
// fl.RoundStats byte accounting.
func weightBytes(w nn.Weights) int64 {
	var n int64
	for _, ts := range [][]*tensor.Tensor{w.Params, w.States} {
		for _, t := range ts {
			n += int64(t.Size()) * 4
		}
	}
	return n
}
