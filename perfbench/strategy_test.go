package main

import (
	"testing"

	"heteroswitch/internal/core"
	"heteroswitch/internal/dataset"
	"heteroswitch/internal/experiments"
	"heteroswitch/internal/fl"
	"heteroswitch/internal/models"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/simclock"
)

// tinyFederation is a one-scene-per-class federation on the small CNN.
func tinyFederation(t *testing.T) ([]*fl.Client, models.Builder) {
	t.Helper()
	opts := experiments.DefaultOptions()
	opts.Seed = 7
	opts.Workers = 2
	dd, err := experiments.BuildDeviceData(opts, 1, 1, dataset.ModeProcessed)
	if err != nil {
		t.Fatal(err)
	}
	clients, err := fl.BuildPopulation(dd.Train, experiments.MarketShareCounts(dd, 12), opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	builder, err := models.BuilderFor(models.ArchSimpleCNN, opts.Seed, 3, dd.Classes)
	if err != nil {
		t.Fatal(err)
	}
	return clients, builder
}

func tinyConfig() fl.Config {
	return fl.Config{Rounds: 3, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1, LR: 0.1, Seed: 7, Workers: 2}
}

// The timed strategy leaves the synchronous engine's result bit-identical,
// on the streaming path that merges shard accumulators.
func TestTimedStrategySyncBitIdentical(t *testing.T) {
	clients, builder := tinyFederation(t)
	cfg := tinyConfig()
	run := func(s fl.Strategy) uint64 {
		srv, err := fl.NewServer(cfg, builder, nn.SoftmaxCrossEntropy{}, s, clients)
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(nil)
		return weightsDigest(srv.Global)
	}
	tr := newTracer()
	timed, timer := timeStrategy(core.New(), tr, "core")
	if got, want := run(timed), run(core.New()); got != want {
		t.Fatalf("timed HeteroSwitch digest %016x, plain %016x", got, want)
	}
	st := tr.stats()
	if n := st["core.local_update"].n(); n != cfg.Rounds*cfg.ClientsPerRound {
		t.Errorf("%d local_update spans, want %d", n, cfg.Rounds*cfg.ClientsPerRound)
	}
	if st["fl.accumulate"].n() != cfg.Rounds*cfg.ClientsPerRound || st["fl.merge"].n() != cfg.Rounds || st["fl.finalize"].n() != cfg.Rounds {
		t.Errorf("accumulate/merge/finalize spans %d/%d/%d", st["fl.accumulate"].n(), st["fl.merge"].n(), st["fl.finalize"].n())
	}
	if timer.samples.Load() == 0 {
		t.Error("no samples counted")
	}
}

// The timed strategy leaves the asynchronous engine's result bit-identical;
// it needs the weighted, resettable and into-finalizing capabilities.
func TestTimedStrategyAsyncBitIdentical(t *testing.T) {
	clients, builder := tinyFederation(t)
	cfg := tinyConfig()
	run := func(s fl.Strategy) uint64 {
		lat, err := simclock.ParseModel("uniform:0.5,2", 7)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := fl.NewAsyncServer(cfg, builder, nn.SoftmaxCrossEntropy{}, s, clients, fl.AsyncConfig{
			Staleness: fl.PolynomialStaleness{Alpha: 0.5}, Latency: lat, Concurrency: 8, Buffer: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Run(nil)
		return weightsDigest(srv.Global)
	}
	tr := newTracer()
	timed, _ := timeStrategy(fl.FedAvg{}, tr, "fl")
	if got, want := run(timed), run(fl.FedAvg{}); got != want {
		t.Fatalf("timed FedAvg digest %016x, plain %016x", got, want)
	}
	if n := tr.stats()["fl.accumulate_weighted"].n(); n != cfg.Rounds*4 {
		t.Errorf("%d accumulate_weighted spans, want %d", n, cfg.Rounds*4)
	}
}

// onlyAcc implements Accumulator and none of the optional capabilities.
type onlyAcc struct{}

func (onlyAcc) Accumulate(fl.ClientResult) {}
func (onlyAcc) Merge(fl.Accumulator)       {}
func (onlyAcc) Finalize() nn.Weights       { return nn.Weights{} }

type weightedAcc struct{ onlyAcc }

func (weightedAcc) AccumulateWeighted(fl.ClientResult, float64) {}

type intoAcc struct{ onlyAcc }

func (intoAcc) FinalizeInto(nn.Weights) bool { return false }

// The wrappers forward exactly the wrapped capability set.
func TestTimedCapabilities(t *testing.T) {
	timer := &strategyTimer{workers: map[*nn.Network]int32{}}
	for _, tc := range []struct {
		name          string
		acc           fl.Accumulator
		w, r, f, base bool
	}{
		{"none", onlyAcc{}, false, false, false, true},
		{"weighted", weightedAcc{}, true, false, false, true},
		{"into", intoAcc{}, false, false, true, true},
		{"fedavg", fl.FedAvg{}.NewAccumulator(nn.Weights{}, fl.Config{}), true, true, true, true},
	} {
		a := wrapAccumulator(tc.acc, timer)
		_, w := a.(fl.WeightedAccumulator)
		_, r := a.(fl.ResettableAccumulator)
		_, f := a.(fl.IntoFinalizer)
		_, base := a.(interface{ base() *timedAcc })
		if w != tc.w || r != tc.r || f != tc.f || base != tc.base {
			t.Errorf("%s: weighted/resettable/into/base = %v/%v/%v/%v, want %v/%v/%v/%v",
				tc.name, w, r, f, base, tc.w, tc.r, tc.f, tc.base)
		}
	}
	if s, _ := timeStrategy(&fl.QFedAvg{Q: 1e-6}, nil, "fl"); isStreaming(s) {
		t.Error("timed q-FedAvg claims streaming aggregation")
	}
	if s, _ := timeStrategy(fl.FedAvg{}, nil, "fl"); !isStreaming(s) {
		t.Error("timed FedAvg lost streaming aggregation")
	}
}

func isStreaming(s fl.Strategy) bool {
	_, ok := s.(fl.StreamingAggregator)
	return ok
}
