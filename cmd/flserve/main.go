// Command flserve runs the deterministic serving load harness: it stands up
// the serving stack (refcounted version store, micro-batcher, per-worker
// frozen replicas) for one model and drives it with a seeded open- or
// closed-loop arrival process in virtual time. Everything printed is a pure
// function of the flags: two invocations with the same flags produce
// byte-identical output — including per-request output digests and the
// latency histogram — at every -intraop setting, which is exactly what the
// CI smoke diffs.
//
// -train switches to the train-while-serve harness: an asynchronous
// federated trainer and the serving stack share one virtual time axis, every
// finalized global version is published into the serving store at its
// finalize instant, and the report adds per-request served-version
// staleness. The same byte-identity contract holds.
package main

import (
	"flag"
	"fmt"
	"os"

	"heteroswitch/internal/experiments"
	"heteroswitch/internal/frand"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/serve"
	"heteroswitch/internal/tensor"
)

func main() {
	var (
		model       = flag.String("model", string(models.ArchMobileNet), "model architecture")
		classes     = flag.Int("classes", 12, "model output classes")
		side        = flag.Int("side", 32, "input image side (3-channel side x side; must match the architecture's expected geometry — 32 for the bundled models)")
		requests    = flag.Int("requests", 2000, "total requests to serve")
		concurrency = flag.Int("concurrency", 16, "closed-loop client population (ignored by open-loop arrivals)")
		arrival     = flag.String("arrival-model", "closed:0.5", "request process: closed:THINK (exp think-time clients) or open:RATE (Poisson arrivals)")
		maxBatch    = flag.Int("max-batch", 8, "micro-batch flush threshold")
		budget      = flag.Float64("batch-budget", 0.25, "virtual time a partial batch waits for more requests before flushing")
		workers     = flag.Int("workers", 2, "concurrent batch executors (one frozen replica each)")
		intraop     = flag.Int("intraop", 0, "total intra-op kernel budget split across workers (0 = GOMAXPROCS; outputs are bit-identical at every setting)")
		svcBase     = flag.Float64("service-base", 1, "virtual per-dispatch service cost")
		svcItem     = flag.Float64("service-per-item", 0.25, "virtual per-request service cost")
		publish     = flag.Int("publish-every", 0, "republish the model (same values, new version) every N batches, exercising version-cache churn (0 = off; unwired runs only)")
		bank        = flag.Int("inputs", 32, "distinct request payloads in the input bank")
		admission   = flag.String("admission", "", "overload admission policy DEPTH,DEADLINE: shed arrivals beyond DEPTH pending requests and queued requests older than DEADLINE at service start (either 0 disables that mechanism; empty or 'off' = no admission control)")
		flush       = flag.String("flush", "", "queued-batch start order: fifo (default) or edf (earliest deadline first, deadline = oldest request arrival + admission DEADLINE)")
		seed        = flag.Uint64("seed", 42, "random seed")
		backend     = flag.String("kernel-backend", tensor.ActiveBackend().String(), "matmul kernel backend for the frozen replicas: serial (bit-identical oracle kernels, the default), int8 (force the quantized weight-stationary kernel, documented-tolerance tier); default honors HETEROSWITCH_KERNEL_BACKEND")

		train      = flag.Bool("train", false, "run the train-while-serve harness (experiments \"train-serve\") instead of the synthetic load harness; serving-side flags above are ignored")
		trainScale = flag.Float64("train-scale", 0.2, "train-while-serve workload scale (1 = full reproduction size)")
		latency    = flag.String("latency-model", "", "virtual client latency for -train: zero, const:D, uniform:LO,HI, straggler:LO,HI,P,FACTOR (empty = uniform:0.5,2)")
		alpha      = flag.Float64("staleness-alpha", 0.5, "polynomial staleness discount 1/(1+s)^alpha for -train async folds (0 = no discount)")
		asyncDepth = flag.Int("async-depth", 2, "in-flight async jobs as a multiple of K for -train (1 = no overlap)")
	)
	flag.Parse()

	var err error
	if *train {
		err = runTrain(*trainScale, *seed, *workers, *intraop, *latency, *alpha, *asyncDepth, *backend)
	} else {
		err = run(*model, *classes, *side, *requests, *concurrency, *arrival,
			*maxBatch, *budget, *workers, *intraop, *svcBase, *svcItem, *publish, *bank, *admission, *flush, *seed, *backend)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flserve:", err)
		os.Exit(1)
	}
}

// runTrain runs the wired train-while-serve harness: training publishes into
// the serving store on one virtual clock, the serving report gains the
// staleness block, and the whole stdout is a pure function of the flags.
func runTrain(scale float64, seed uint64, workers, intraop int, latency string, alpha float64, depth int, backend string) error {
	fmt.Printf("flserve train-while-serve scale=%g seed=%d latency=%s staleness_alpha=%g depth=%d\n",
		scale, seed, orDefault(latency, "uniform:0.5,2"), alpha, depth)
	opts := experiments.DefaultOptions()
	opts.Scale = scale
	opts.Seed = seed
	opts.Workers = max(workers, 1)
	opts.IntraOp = intraop
	opts.KernelBackend = backend
	opts.Async = experiments.AsyncOptions{
		StalenessAlpha: alpha,
		LatencyModel:   latency,
		Depth:          depth,
	}
	res, err := experiments.Run("train-serve", opts)
	if err != nil {
		return err
	}
	fmt.Print(res.String())
	return nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func run(model string, classes, side, requests, concurrency int, arrivalSpec string,
	maxBatch int, budget float64, workers, intraop int, svcBase, svcItem float64,
	publish, bank int, admissionSpec, flushSpec string, seed uint64, backend string) error {
	kb, err := tensor.ParseBackend(backend)
	if err != nil {
		return err
	}
	admission, err := serve.ParseAdmission(admissionSpec)
	if err != nil {
		return err
	}
	flush, err := serve.ParseFlush(flushSpec)
	if err != nil {
		return err
	}
	tensor.SetBackend(kb)
	builder, err := models.BuilderFor(models.Arch(model), seed, 3, classes)
	if err != nil {
		return err
	}
	build := func() *nn.Network { return builder() }
	weights := build().Snapshot()

	arrivalModel, err := serve.ParseArrival(arrivalSpec, seed^0xa11ce)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(build, weights, serve.Config{
		MaxBatch:    maxBatch,
		BatchBudget: budget,
		Workers:     workers,
		IntraOp:     intraop,
		Admission:   admission,
		Flush:       flush,
	})
	if err != nil {
		return err
	}

	r := frand.New(seed ^ 0x1ead)
	inputs := make([]*tensor.Tensor, bank)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 0.5, 3, side, side)
	}

	fmt.Printf("flserve model=%s classes=%d input=3x%dx%d\n", model, classes, side, side)
	// The FIFO default keeps this line — and therefore the whole default
	// stdout — byte-identical to earlier releases; a non-default flush
	// policy is appended so it shows up in the smoke diff.
	flushNote := ""
	if flush != serve.FlushFIFO {
		flushNote = fmt.Sprintf(" flush=%s", flush)
	}
	fmt.Printf("config max_batch=%d batch_budget=%g workers=%d intraop=%d arrival=%s service=affine(%g,%g) publish_every=%d admission=%d,%g seed=%d%s\n",
		maxBatch, budget, workers, intraop, arrivalSpec, svcBase, svcItem, publish, admission.Depth, admission.Deadline, seed, flushNote)

	report, err := srv.RunLoad(serve.LoadConfig{
		Requests:     requests,
		Concurrency:  concurrency,
		Arrival:      arrivalModel,
		Service:      serve.AffineService{Base: svcBase, PerItem: svcItem},
		Seed:         seed,
		PublishEvery: publish,
		Inputs:       inputs,
	})
	if err != nil {
		return err
	}
	fmt.Printf("versions published=%d resident=%d\n", srv.Store().Version(), srv.Store().Live())
	fmt.Print(report.String())
	return nil
}
