package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"time"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/metrics"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
)

// The fl-sync configuration is flsim's default paper configuration.
const (
	flPerClassTrain = 12
	flPerClassTest  = 4
	flClients       = 100
	flWorkers       = 2
	// flRoundCost is the nominal wall time of one round on a 2-core x86
	// box. It only converts --seconds into a fixed round count, so the
	// same --seconds always trains the same rounds.
	flRoundCost = 0.4
)

// flSeed is the paper configuration's FL seed (flsim's default). It draws
// the clients of every round; the workload seed renders the scenes, captures
// them, partitions the population and initializes the model. With client
// sizes ranging over an order of magnitude across devices, a per-seed round
// schedule would make round times differ by seed more than by program.
const flSeed = 42

func flConfig(seed uint64, rounds int) fl.Config {
	return fl.Config{
		Rounds:          rounds,
		ClientsPerRound: 20,
		BatchSize:       10,
		LocalEpochs:     1,
		LR:              0.1,
		Seed:            seed,
		Workers:         flWorkers,
	}
}

// flSetup is one fl-sync set-up: the captured federation and the model.
type flSetup struct {
	dd      *experiments.DeviceData
	builder models.Builder
	seed    uint64
}

// flPass is what one pass of fl-sync rounds produced.
type flPass struct {
	rounds    []time.Duration
	roundsSum time.Duration
	eval      time.Duration
	run       time.Duration
	acc       []float64 // per device, percent
	digest    uint64
	bytesUp   int64
	bytesDown int64
}

func runFLSync(rc runConfig) (*result, error) {
	rounds := max(2, int(math.Round(rc.seconds/flRoundCost)))
	res := &result{
		metrics: map[string]float64{},
		work:    fmt.Sprintf("%d rounds of K=20 per pass, %d set-ups", rounds, setupRepeats),
	}
	cfg := flConfig(flSeed, rounds)

	opts := experiments.DefaultOptions()
	opts.Seed = rc.seed
	opts.Workers = flWorkers
	var setups, builds, flBuilds []time.Duration
	var su flSetup
	var srv *fl.Server
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		dd, err := experiments.BuildDeviceData(opts, flPerClassTrain, flPerClassTest, dataset.ModeProcessed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		builder, err := models.BuilderFor(models.ArchMobileNet, rc.seed, 3, dd.Classes)
		if err != nil {
			return nil, err
		}
		su = flSetup{dd: dd, builder: builder, seed: rc.seed}
		srv, err = su.server(cfg, core.New())
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0))
		builds = append(builds, t1.Sub(t0))
		flBuilds = append(flBuilds, t2.Sub(t1))
		debug.FreeOSMemory()
	}
	res.metrics["setup_s"] = medianSeconds(setups)

	plain := su.pass(res, srv, cfg, nil, nil)
	res.attempted = rounds + 1
	res.metrics["throughput_per_s"] = float64(cfg.ClientsPerRound*rounds) / plain.roundsSum.Seconds()
	res.metrics["p50_ms"] = quantileMS(plain.rounds, 0.5)
	if !rc.trace {
		return res, nil
	}

	tr := newTracer()
	res.tr = tr
	strat, timer := timeStrategy(core.New(), tr, "core")
	tsrv, err := su.server(cfg, strat)
	if err != nil {
		return nil, err
	}
	traced := su.pass(res, tsrv, cfg, tr, timer)
	res.attempted += rounds + 1
	res.attempted++
	res.check(traced.digest == plain.digest && slices.Equal(traced.acc, plain.acc),
		"fl-sync: traced pass ended with weights digest %016x and accuracies %v, untraced %016x and %v",
		traced.digest, traced.acc, plain.digest, plain.acc)

	st := tr.stats()
	m := res.metrics
	m["experiments.build_device_data_s"] = medianSeconds(builds)
	m["fl.build_s"] = medianSeconds(flBuilds)
	lu, acc := st["core.local_update"], st["fl.accumulate"]
	m["core.local_update.count"] = float64(lu.n())
	m["core.local_update.busy_s"] = lu.busySeconds()
	m["core.local_update.p50_ms"] = lu.quantile(0.5)
	m["core.local_update.p90_ms"] = lu.quantile(0.9)
	m["fl.accumulate.count"] = float64(acc.n())
	m["fl.accumulate.busy_s"] = acc.busySeconds()
	m["fl.finalize.busy_s"] = st["fl.merge"].busySeconds() + st["fl.finalize"].busySeconds()
	busy := lu.busySeconds() + acc.busySeconds()
	m["fl.worker_idle_frac"] = 1 - busy/(flWorkers*traced.roundsSum.Seconds())
	m["fl.samples.count"] = float64(timer.samples.Load())
	m["fl.bytes_up.count"] = float64(traced.bytesUp)
	m["fl.bytes_down.count"] = float64(traced.bytesDown)
	m["metrics.per_device_eval_s"] = traced.eval.Seconds()
	m["fl.run_s"] = plain.run.Seconds()
	m["fl.acc_mean"] = metrics.Mean(plain.acc)
	m["fl.acc_worst"] = metrics.Worst(plain.acc)
	m["fl.acc_var"] = metrics.Variance(plain.acc)
	m["trace.overhead_frac"] = traced.roundsSum.Seconds()/plain.roundsSum.Seconds() - 1
	return res, nil
}

// server builds a fresh population and synchronous server on the set-up's
// federation, so every pass starts from the same initial global model.
func (su flSetup) server(cfg fl.Config, strat fl.Strategy) (*fl.Server, error) {
	clients, err := fl.BuildPopulation(su.dd.Train, experiments.MarketShareCounts(su.dd, flClients), su.seed)
	if err != nil {
		return nil, err
	}
	return fl.NewServer(cfg, su.builder, nn.SoftmaxCrossEntropy{}, strat, clients)
}

// pass runs every round and the final per-device evaluation, checking the
// exact work accounting of each round. With a tracer, rounds and the
// evaluation are spans and the timer parents the strategy's spans.
func (su flSetup) pass(res *result, srv *fl.Server, cfg fl.Config, tr *tracer, timer *strategyTimer) flPass {
	var p flPass
	wb := weightBytes(srv.Global)
	start := time.Now()
	for r := 0; r < cfg.Rounds; r++ {
		sp := tr.begin("fl.round", -1, int64(r), 0)
		if timer != nil {
			timer.setRound(sp, int64(r))
		}
		t0 := time.Now()
		st := srv.RunRound(r)
		d := time.Since(t0)
		tr.end(sp)
		p.rounds = append(p.rounds, d)
		p.roundsSum += d
		p.bytesUp += st.BytesUp
		p.bytesDown += st.BytesDown
		k := int64(cfg.ClientsPerRound)
		res.check(len(st.Sampled) == cfg.ClientsPerRound && len(st.Rejected) == 0 &&
			st.BytesUp == k*wb && st.BytesDown == k*wb && !math.IsNaN(st.MeanLoss) && !math.IsInf(st.MeanLoss, 0),
			"fl-sync: round %d folded %d of %d clients (%d rejected), moved %d/%d bytes up/down (want %d), train loss %v",
			r, len(st.Sampled), cfg.ClientsPerRound, len(st.Rejected), st.BytesUp, st.BytesDown, k*wb, st.MeanLoss)
	}
	sp := tr.begin("metrics.per_device_eval", -1, -1, 0)
	t0 := time.Now()
	acc := experiments.PerDeviceAccuracies(srv.GlobalNet(), su.dd, 16)
	p.eval = time.Since(t0)
	tr.end(sp)
	p.run = time.Since(start)
	inRange := true
	for i := range su.dd.Profiles {
		inRange = inRange && acc[i] >= 0 && acc[i] <= 1
		p.acc = append(p.acc, acc[i]*100)
	}
	res.check(inRange, "fl-sync: per-device accuracies %v%% outside [0,100]", p.acc)
	p.digest = weightsDigest(srv.Global)
	return p
}
