package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/simclock"
	"heteroswitch/internal/tensor"
)

// The train-serve job: FedAvg on mobilenetv3-tiny trained asynchronously
// (K updates per window, 2K in flight, uniform virtual latencies, polynomial
// staleness discount) while an open-loop request stream spanning the whole
// training run is micro-batched onto two frozen replicas. Every window
// publishes a version, so every window costs a replica refold and panel
// repack beside the serving forwards.
const (
	tsPerClassTrain = 4
	tsPerClassTest  = 2
	tsClients       = 24
	tsK             = 4
	tsWindows       = 12
	tsRequests      = 1500
	// tsRate is the virtual arrival rate: tsWindows windows take about
	// 0.6 virtual time units each, so the stream spans the training run.
	tsRate = 200.0
	// tsJobCost is the nominal wall time of one job on a 2-core x86 box.
	// It only converts --seconds into a fixed job count.
	tsJobCost = 2.5
	// tsSeed seeds the job's schedule: client sampling, virtual client
	// latencies and request arrivals. The workload seed renders and
	// captures the data, partitions the population and initializes the
	// model (see flSeed).
	tsSeed = 42
)

func runTrainServe(rc runConfig) (*result, error) {
	jobs := max(3, int(math.Round(rc.seconds/tsJobCost)))
	res := &result{
		metrics: map[string]float64{},
		work: fmt.Sprintf("%d jobs of %d windows x K=%d and %d requests per pass, %d set-ups",
			jobs, tsWindows, tsK, tsRequests, setupRepeats),
	}
	opts := experiments.DefaultOptions()
	opts.Seed = rc.seed
	opts.Workers = 2

	var setups, builds, flBuilds []time.Duration
	var spec experiments.TrainServeSpec
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		dd, err := experiments.BuildDeviceData(opts, tsPerClassTrain, tsPerClassTest, dataset.ModeProcessed)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		spec, err = trainServeSpec(rc.seed, dd)
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

	plain := runJobs(res, spec, jobs, nil, nil)
	res.attempted = jobs
	updates := float64(jobs * tsWindows * tsK)
	res.metrics["throughput_per_s"] = updates / plain.wall.Seconds()
	res.metrics["p50_ms"] = quantileMS(plain.jobs, 0.5)
	if !rc.trace {
		return res, nil
	}

	tr := newTracer()
	res.tr = tr
	strat, timer := timeStrategy(spec.Strategy, tr, "fl")
	tspec := spec
	tspec.Strategy = strat
	traced := runJobs(res, tspec, jobs, tr, timer)
	res.attempted += jobs + 1
	res.check(traced.digest == plain.digest, "train-serve: traced output digest %016x != untraced %016x", traced.digest, plain.digest)

	st := tr.stats()
	m := res.metrics
	m["experiments.build_device_data_s"] = medianSeconds(builds)
	m["fl.build_s"] = medianSeconds(flBuilds)
	lu, aw := st["fl.local_update"], st["fl.accumulate_weighted"]
	fin := st["fl.finalize"].busySeconds()
	m["fl.local_update.count"] = float64(lu.n())
	m["fl.local_update.busy_s"] = lu.busySeconds()
	m["fl.accumulate_weighted.count"] = float64(aw.n())
	m["fl.accumulate_weighted.busy_s"] = aw.busySeconds()
	m["fl.finalize.busy_s"] = fin
	m["fl.samples.count"] = float64(timer.samples.Load())
	m["nn.replica_ensure_ms"] = replicaEnsureP50(spec.Builder)
	rep := traced.report
	m["trainserve.published.count"] = float64(rep.Published * jobs)
	m["serve.batches.count"] = float64(rep.Serving.Batches * jobs)
	m["serve.mean_batch"] = rep.Serving.MeanBatch
	m["serve.shed.count"] = float64((rep.Serving.ShedQueue + rep.Serving.ShedDeadline) * jobs)
	m["trainserve.other_s"] = traced.wall.Seconds() - lu.busySeconds() - aw.busySeconds() - fin
	m["trainserve.vp99"] = rep.Serving.P99
	m["trainserve.staleness_mean"] = rep.Serving.StaleMean
	m["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	return res, nil
}

// trainServeSpec builds the job spec from public parts: the population, the
// async and serving configuration, and the payload bank of test captures.
func trainServeSpec(seed uint64, dd *experiments.DeviceData) (experiments.TrainServeSpec, error) {
	builder, err := models.BuilderFor(models.ArchMobileNet, seed, 3, dd.Classes)
	if err != nil {
		return experiments.TrainServeSpec{}, err
	}
	clients, err := fl.BuildPopulation(dd.Train, experiments.MarketShareCounts(dd, tsClients), seed)
	if err != nil {
		return experiments.TrainServeSpec{}, err
	}
	lat, err := simclock.ParseModel("uniform:0.5,2", tsSeed)
	if err != nil {
		return experiments.TrainServeSpec{}, err
	}
	test := dd.AllTest()
	inputs := make([]*tensor.Tensor, test.Len())
	for i, s := range test.Samples {
		inputs[i] = s.X
	}
	return experiments.TrainServeSpec{
		FL: fl.Config{
			Rounds: tsWindows, ClientsPerRound: tsK, BatchSize: 10, LocalEpochs: 1, LR: 0.1,
			Seed: tsSeed, Workers: 1,
		},
		Async: fl.AsyncConfig{
			Staleness:   fl.PolynomialStaleness{Alpha: 0.5},
			Latency:     lat,
			Concurrency: 2 * tsK,
			Buffer:      tsK,
		},
		Strategy: fl.FedAvg{},
		Loss:     nn.SoftmaxCrossEntropy{},
		Clients:  clients,
		Builder:  builder,
		Serve: serve.Config{
			MaxBatch:    4,
			BatchBudget: 0.01,
			Workers:     2,
			IntraOp:     2,
			Flush:       serve.FlushEDF,
			Admission:   serve.AdmissionConfig{Deadline: 0.05},
		},
		Load: serve.LoadConfig{
			Requests: tsRequests,
			Arrival:  serve.OpenLoop{Rate: tsRate, Seed: tsSeed},
			Service:  serve.AffineService{Base: 0.004, PerItem: 0.002},
			Inputs:   inputs,
		},
	}, nil
}

// jobsPass is what one pass of identical train-serve jobs produced.
type jobsPass struct {
	jobs   []time.Duration
	wall   time.Duration
	digest uint64
	report *experiments.TrainServeReport
}

// runJobs runs the same job n times; every job must serve or shed every
// request and reproduce the first job's output digest.
func runJobs(res *result, spec experiments.TrainServeSpec, n int, tr *tracer, timer *strategyTimer) jobsPass {
	var p jobsPass
	for j := 0; j < n; j++ {
		// Each job starts on a collected heap, so the peak resident memory
		// is one job's, not one job's plus however much garbage earlier
		// jobs left when the collector last ran.
		debug.FreeOSMemory()
		sp := tr.begin("trainserve.job", -1, int64(j), 0)
		if timer != nil {
			timer.setRound(sp, int64(j))
		}
		t0 := time.Now()
		rep, err := experiments.RunTrainServe(spec)
		d := time.Since(t0)
		tr.end(sp)
		p.jobs = append(p.jobs, d)
		p.wall += d
		if err != nil {
			res.check(false, "train-serve: job %d: %v", j, err)
			continue
		}
		s := rep.Serving
		if p.report == nil {
			p.report, p.digest = rep, s.OutputDigest
		}
		res.check(s.Requests == tsRequests && s.Served+s.ShedQueue+s.ShedDeadline == s.Requests &&
			rep.Windows == tsWindows && rep.Published > 0 && s.OutputDigest == p.digest,
			"train-serve: job %d finished %d of %d requests (served %d, shed %d+%d), ran %d windows, published %d, digest %016x (job 0 %016x)",
			j, s.Requests, tsRequests, s.Served, s.ShedQueue, s.ShedDeadline, rep.Windows, rep.Published, s.OutputDigest, p.digest)
	}
	if p.report == nil {
		p.report = &experiments.TrainServeReport{}
	}
	return p
}

// replicaEnsureP50 times Replica.Ensure standalone on a pooled replica (so
// panels pack as in serving), loading a new version each call by alternating
// two weight sets.
func replicaEnsureP50(builder models.Builder) float64 {
	ws := []nn.Weights{builder().Snapshot(), builder().Snapshot()}
	ws[1].Scale(0.5)
	rep := nn.NewReplicaPool(1, builder, 1).Get()
	var ds []time.Duration
	for v := 0; v < 40; v++ {
		t0 := time.Now()
		if err := rep.Ensure(v, ws[v%2]); err != nil {
			panic(fmt.Sprintf("perfbench: replica rejects its builder's weights: %v", err))
		}
		ds = append(ds, time.Since(t0))
	}
	return quantileMS(ds, 0.5)
}
