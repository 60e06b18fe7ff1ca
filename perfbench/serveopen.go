package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/tensor"
)

// The serve-open rates are fixed absolute rates near one third and three
// quarters of the two-caller capacity of mobilenetv3-tiny batch-1 serving on
// a 2-core x86 box, so a faster kernel shows as lower latency at the same
// rate rather than as a different rate.
const (
	serveCallers  = 2
	serveLowRPS   = 1100
	serveHighRPS  = 2400
	servePerClass = 4
	// The low and high phases last these shares of --seconds.
	serveLowShare  = 0.3
	serveHighShare = 0.5

	// p99LimitMS is the latency limit of the max_rps ladder. The ladder
	// starts at the high rate and grows geometrically, one step each
	// ladderStep, without draining between steps. A step passes when the p99
	// latency (from due time, failed requests counting as over the limit)
	// of the requests due in it meets the limit and its backlog did not
	// grow: the requests due but not started at its end are no more than at
	// its start, or no more than the limit's worth of requests at its rate.
	// A machine that deschedules the process for milliseconds at a time
	// leaves a backlog of a few requests at random instants, so the ladder
	// stops only at the second failing step in a row; max_rps is the highest
	// passing rate before that.
	p99LimitMS   = 25.0
	ladderStart  = serveHighRPS
	ladderGrowth = 1.03
	ladderSteps  = 24
	ladderStep   = 500 * time.Millisecond

	// spinWindow is how long before a due time an idle caller stops
	// sleeping and spins (yielding to any other runnable goroutine), so
	// timer wake-up jitter, about a millisecond on Linux, stays out of
	// latencies.
	spinWindow = 3 * time.Millisecond
)

// payloads is the request bank: device-captured test images shaped as
// batches of one, and each one's served output from set-up.
type payloads struct {
	x    []*tensor.Tensor
	want [][]float32
}

func runServeOpen(rc runConfig) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	opts := experiments.DefaultOptions()
	opts.Seed = rc.seed
	opts.Workers = serveCallers

	var setups, builds []time.Duration
	var srv *serve.Server
	var bank payloads
	var builder models.Builder
	var w nn.Weights
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		dd, err := experiments.BuildDeviceData(opts, 1, servePerClass, dataset.ModeProcessed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		builder, err = models.BuilderFor(models.ArchMobileNet, rc.seed, 3, dd.Classes)
		if err != nil {
			return nil, err
		}
		w = builder().Snapshot()
		srv, err = serve.NewServer(builder, w, serve.Config{Workers: serveCallers, IntraOp: serveCallers})
		if err != nil {
			return nil, err
		}
		bank, err = checkPayloads(res, srv, builder, w, dd.AllTest())
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
		builds = append(builds, t1.Sub(t0))
		debug.FreeOSMemory()
	}
	res.metrics["setup_s"] = medianSeconds(setups)
	res.attempted = setupRepeats * len(bank.x)

	rng := func(label string) *frand.RNG { return frand.New(rc.seed).SplitNamed(label) }
	lowLen := time.Duration(rc.seconds * serveLowShare * float64(time.Second))
	highLen := time.Duration(rc.seconds * serveHighShare * float64(time.Second))
	low := newOpenLoop(rng("low"), len(bank.x), []float64{serveLowRPS}, lowLen)
	high := newOpenLoop(rng("high"), len(bank.x), []float64{serveHighRPS}, highLen)
	low.run(res, srv, bank, nil, nil)
	high.run(res, srv, bank, nil, nil)

	rates := make([]float64, ladderSteps)
	for i := range rates {
		rates[i] = ladderStart * math.Pow(ladderGrowth, float64(i))
	}
	ladder := newOpenLoop(rng("ladder"), len(bank.x), rates, ladderStep)
	maxRPS, fails := 0.0, 0
	ladder.run(res, srv, bank, nil, func(step int) bool {
		if ladder.stepPasses(step) {
			maxRPS, fails = rates[step], 0
		} else {
			fails++
		}
		return fails < 2
	})
	res.attempted += low.sent() + high.sent() + ladder.sent()
	res.metrics["throughput_per_s"] = maxRPS
	res.metrics["p50_ms"] = low.latencyMS(0.5)
	res.work = fmt.Sprintf("%d low and %d high requests, ladder to %.0f req/s (%d requests), %d set-ups of %d payloads",
		low.sent(), high.sent(), rates[min(len(rates)-1, ladder.stepOf(ladder.sent()-1))], ladder.sent(), setupRepeats, len(bank.x))
	if !rc.trace {
		return res, nil
	}

	tr := newTracer()
	res.tr = tr
	tlow := newOpenLoop(rng("low"), len(bank.x), []float64{serveLowRPS}, lowLen)
	thigh := newOpenLoop(rng("high"), len(bank.x), []float64{serveHighRPS}, highLen)
	tlow.run(res, srv, bank, tr, nil)
	thigh.run(res, srv, bank, tr, nil)
	res.attempted += tlow.sent() + thigh.sent()

	m := res.metrics
	m["experiments.build_device_data_s"] = medianSeconds(builds)
	for _, ph := range []struct {
		name          string
		plain, traced *openLoop
	}{{"low", low, tlow}, {"high", high, thigh}} {
		m["serve.p50_ms."+ph.name] = ph.plain.latencyMS(0.5)
		m["serve.p99_ms."+ph.name] = ph.plain.latencyMS(0.99)
		t := ph.traced
		m["serve.predict.p50_ms."+ph.name] = t.predictMS(0.5)
		m["serve.predict.p99_ms."+ph.name] = t.predictMS(0.99)
		m["serve.requests.sent."+ph.name] = float64(t.sent())
		m["serve.requests.failed."+ph.name] = float64(t.failures())
		m["serve.requests.ok."+ph.name] = float64(t.sent() - t.failures())
		m["serve.queue_wait.p50_ms."+ph.name] = t.queueWaitMS(0.5)
		m["serve.queue_wait.p99_ms."+ph.name] = t.queueWaitMS(0.99)
		m["serve.caller_busy_frac."+ph.name] = t.busyFrac()
		m["serve.backlog_end."+ph.name] = float64(t.backlogAt(t.stepEnd(0)))
	}
	m["serve.gen_lateness.max_ms"] = max(tlow.maxLateMS(), thigh.maxLateMS())
	m["nn.frozen_infer.p50_ms"] = frozenInferP50(builder, w, bank)
	m["serve.overhead.p50_ms"] = m["serve.predict.p50_ms.low"] - m["nn.frozen_infer.p50_ms"]
	plainMean := (low.meanLatencyMS() + high.meanLatencyMS()) / 2
	m["trace.overhead_frac"] = (tlow.meanLatencyMS()+thigh.meanLatencyMS())/2/plainMean - 1
	return res, nil
}

// checkPayloads shapes every test image as a batch of one and checks that
// the served output matches the reference eval forward within the active
// kernel tier's tolerance, with the same argmax. The served outputs become
// the bit-exact expectations of the timed requests.
func checkPayloads(res *result, srv *serve.Server, builder models.Builder, w nn.Weights, test *dataset.Dataset) (payloads, error) {
	ref := builder()
	if err := ref.LoadWeights(w); err != nil {
		return payloads{}, err
	}
	var p payloads
	for i, s := range test.Samples {
		x := tensor.FromSlice(s.X.Data(), append([]int{1}, s.X.Shape()...)...)
		want := ref.Forward(x, false).Data()
		got := make([]float32, len(want))
		_, n, err := srv.PredictInto(got, x)
		if err != nil {
			return payloads{}, fmt.Errorf("payload %d: %w", i, err)
		}
		res.check(n == len(want) && argmax(got) == argmax(want) && withinTier(got, want),
			"serve-open: payload %d served %v, reference %v", i, got, want)
		p.x = append(p.x, x)
		p.want = append(p.want, got)
	}
	if len(p.x) == 0 {
		return payloads{}, fmt.Errorf("empty payload bank")
	}
	return p, nil
}

// withinTier reports whether a frozen forward's output is within the active
// kernel tier's documented tolerance of the reference: per element 1e-5,
// relative past unit magnitude, for the float tiers; Int8Tol relative to the
// output's unit-floored magnitude for int8.
func withinTier(got, want []float32) bool {
	rowMag := 1.0
	for _, v := range want {
		rowMag = max(rowMag, math.Abs(float64(v)))
	}
	for j := range want {
		tol := 1e-5 * max(1, math.Abs(float64(want[j])))
		if tensor.ActiveBackend() == tensor.BackendInt8 {
			tol = tensor.Int8Tol * rowMag
		}
		if math.Abs(float64(got[j])-float64(want[j])) > tol {
			return false
		}
	}
	return true
}

func argmax(v []float32) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// frozenInferP50 times Frozen.Infer standalone at batch 1 with the core
// share of one serving replica, over two sweeps of the payload bank.
func frozenInferP50(builder models.Builder, w nn.Weights, bank payloads) float64 {
	net := builder()
	if err := net.LoadWeights(w); err != nil {
		panic("perfbench: builder incompatible with its own weights: " + err.Error())
	}
	net.SetIntraOp(1)
	f := net.Freeze()
	var ds []time.Duration
	for sweep := 0; sweep < 2; sweep++ {
		for _, x := range bank.x {
			t0 := time.Now()
			f.Infer(x)
			ds = append(ds, time.Since(t0))
		}
	}
	return quantileMS(ds, 0.5)
}

// openLoop is one seeded Poisson request schedule, in steps of equal length
// with one rate each, and the record of serving it. start and end are
// nanoseconds since the schedule's epoch, 0 until set; callers write them
// and the step monitor reads them concurrently.
type openLoop struct {
	due      []time.Duration
	payload  []int
	steps    []int // index of each step's first request, then len(due)
	stepLen  time.Duration
	start    []atomic.Int64
	end      []atomic.Int64
	early    []bool // the caller was idle at the due time
	failed   []bool
	limit    atomic.Int64
	duration time.Duration
}

// newOpenLoop draws exponential gaps at rates[k] for step k.
func newOpenLoop(rng *frand.RNG, bank int, rates []float64, stepLen time.Duration) *openLoop {
	o := &openLoop{stepLen: stepLen}
	t := 0.0
	for k, rate := range rates {
		o.steps = append(o.steps, len(o.due))
		stepEnd := float64((time.Duration(k+1) * stepLen))
		for {
			t += -math.Log1p(-rng.Float64()) / rate * 1e9
			if t >= stepEnd {
				t = stepEnd
				break
			}
			o.due = append(o.due, time.Duration(t))
			o.payload = append(o.payload, rng.Intn(bank))
		}
	}
	o.steps = append(o.steps, len(o.due))
	n := len(o.due)
	o.start = make([]atomic.Int64, n)
	o.end = make([]atomic.Int64, n)
	o.early = make([]bool, n)
	o.failed = make([]bool, n)
	o.limit.Store(int64(n))
	return o
}

// run serves the schedule from serveCallers goroutines that take requests
// in due order. After each step has ended and all its requests completed,
// onStep (if set) decides whether to go on; false stops issuing requests.
// With a tracer every request is a span with queue-wait and predict
// children.
func (o *openLoop) run(res *result, srv *serve.Server, bank payloads, tr *tracer, onStep func(int) bool) {
	epoch := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			dst := make([]float32, len(bank.want[0]))
			for {
				i := next.Add(1) - 1
				if i >= o.limit.Load() {
					return
				}
				due := epoch.Add(o.due[i])
				if time.Until(due) > 0 {
					o.early[i] = true
					waitUntil(due)
				}
				s := time.Now()
				_, _, err := srv.PredictInto(dst, bank.x[o.payload[i]])
				e := time.Now()
				// failed[i] is written before the end store that publishes
				// the request to the step monitor.
				o.failed[i] = err != nil || !equalBits(dst, bank.want[o.payload[i]])
				o.start[i].Store(int64(s.Sub(epoch)) + 1)
				o.end[i].Store(int64(e.Sub(epoch)) + 1)
				if tr != nil {
					req := tr.add("serve.request", due, e, -1, i, tid)
					tr.add("serve.queue_wait", due, s, req, i, tid)
					tr.add("serve.predict", s, e, req, i, tid)
				}
			}
		}(int32(c + 1))
	}
	if onStep != nil {
		for k := 0; k+1 < len(o.steps); k++ {
			time.Sleep(time.Until(epoch.Add(o.stepEnd(k))))
			for i := o.steps[k]; i < o.steps[k+1]; i++ {
				for o.end[i].Load() == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			if !onStep(k) {
				o.limit.Store(int64(o.steps[k+1]))
				break
			}
		}
	}
	wg.Wait()
	o.duration = time.Since(epoch)
	for i, n := 0, o.sent(); i < n; i++ {
		res.check(!o.failed[i], "serve-open: request %d (payload %d) failed or differs from its set-up output", i, o.payload[i])
	}
}

// waitUntil sleeps until spinWindow before t, then spins.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func equalBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sent is the number of requests issued: all of them unless a step stopped
// the schedule, in which case those up to the end of the failing step
// (a few past it may have been taken before the stop, and were served).
func (o *openLoop) sent() int {
	n := 0
	for i := range o.end {
		if o.end[i].Load() != 0 {
			n = i + 1
		}
	}
	return n
}

// stepOf is the step request i is due in.
func (o *openLoop) stepOf(i int) int {
	return sort.SearchInts(o.steps, i+1) - 1
}

func (o *openLoop) failures() int {
	n := 0
	for i, sent := 0, o.sent(); i < sent; i++ {
		if o.failed[i] {
			n++
		}
	}
	return n
}

func (o *openLoop) stepEnd(k int) time.Duration { return time.Duration(k+1) * o.stepLen }

// backlogAt counts requests due at or before t (since the epoch) that had
// not started by t.
func (o *openLoop) backlogAt(t time.Duration) int {
	n := 0
	for i, d := range o.due {
		if d > t {
			break
		}
		if s := o.start[i].Load(); s == 0 || time.Duration(s-1) > t {
			n++
		}
	}
	return n
}

// latencies returns, for the requests of steps [k0, k1), the time from due
// to completion; failed requests read as +Inf.
func (o *openLoop) latencies(k0, k1 int) []float64 {
	var out []float64
	for i := o.steps[k0]; i < o.steps[k1] && i < len(o.due); i++ {
		e := o.end[i].Load()
		if e == 0 {
			continue
		}
		d := float64(time.Duration(e-1)-o.due[i]) / 1e6
		if o.failed[i] {
			d = math.Inf(1)
		}
		out = append(out, d)
	}
	return out
}

// limitBacklog is the backlog that alone makes a request wait the latency
// limit at step k's rate.
func (o *openLoop) limitBacklog(k int) int {
	return int(float64(o.steps[k+1]-o.steps[k]) / o.stepLen.Seconds() * p99LimitMS / 1e3)
}

func (o *openLoop) stepPasses(k int) bool {
	lat := o.latencies(k, k+1)
	if len(lat) == 0 {
		return false
	}
	end, start := o.backlogAt(o.stepEnd(k)), o.backlogAt(o.stepEnd(k)-o.stepLen)
	return quantile(lat, 0.99) <= p99LimitMS && (end <= start || end <= o.limitBacklog(k))
}

// latencyMS is the q-quantile of latency from due time over the schedule.
func (o *openLoop) latencyMS(q float64) float64 {
	return quantile(o.latencies(0, len(o.steps)-1), q)
}

func (o *openLoop) meanLatencyMS() float64 {
	lat := o.latencies(0, len(o.steps)-1)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	return sum / float64(len(lat))
}

// spanMS collects per-request durations between two recorded instants.
func (o *openLoop) spanMS(f func(i int) time.Duration, q float64) float64 {
	var out []float64
	for i, n := 0, o.sent(); i < n; i++ {
		out = append(out, float64(f(i))/1e6)
	}
	return quantile(out, q)
}

func (o *openLoop) predictMS(q float64) float64 {
	return o.spanMS(func(i int) time.Duration { return time.Duration(o.end[i].Load() - o.start[i].Load()) }, q)
}

func (o *openLoop) queueWaitMS(q float64) float64 {
	return o.spanMS(func(i int) time.Duration { return time.Duration(o.start[i].Load()-1) - o.due[i] }, q)
}

// maxLateMS is how late the generator started a request whose caller was
// idle at its due time, at worst.
func (o *openLoop) maxLateMS() float64 {
	late := 0.0
	for i, n := 0, o.sent(); i < n; i++ {
		if o.early[i] {
			late = max(late, float64(time.Duration(o.start[i].Load()-1)-o.due[i])/1e6)
		}
	}
	return late
}

// busyFrac is the share of the callers' time spent inside PredictInto.
func (o *openLoop) busyFrac() float64 {
	var busy time.Duration
	for i, n := 0, o.sent(); i < n; i++ {
		busy += time.Duration(o.end[i].Load() - o.start[i].Load())
	}
	return busy.Seconds() / (serveCallers * o.duration.Seconds())
}
