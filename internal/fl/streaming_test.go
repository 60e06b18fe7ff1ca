package fl

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/nn"
	"heteroswitch/internal/tensor"
)

// randResults builds k client results with randomized weights (params and a
// state tensor, exercising both fold paths) and sample counts in [1, 32].
func randResults(r *frand.RNG, k, dim int) []ClientResult {
	out := make([]ClientResult, k)
	for i := range out {
		out[i] = ClientResult{
			ClientID:   i,
			NumSamples: r.Intn(32) + 1,
			Weights: nn.Weights{
				Params: []*tensor.Tensor{tensor.Randn(r, 1, dim), tensor.Randn(r, 1, 3)},
				States: []*tensor.Tensor{tensor.Randn(r, 1, 2)},
			},
			TrainLoss: r.Float64(),
		}
	}
	return out
}

// streamAggregate folds results through `shards` accumulators round-robin
// and merges them tree-style — the server's streaming path, minus the
// goroutines.
func streamAggregate(sa StreamingAggregator, global nn.Weights, results []ClientResult, shards int, cfg Config) nn.Weights {
	accs := make([]Accumulator, shards)
	for i := range accs {
		accs[i] = sa.NewAccumulator(global, cfg)
	}
	for i, r := range results {
		accs[i%shards].Accumulate(r)
	}
	return mergeShards(accs).Finalize()
}

// Property: streaming FedAvg aggregation is numerically equivalent (within
// float32 tolerance) to the barrier-path weightedAverage, for randomized
// client counts, sample sizes, weight values, and shard (worker) counts.
func TestStreamingFedAvgMatchesWeightedAverage(t *testing.T) {
	f := func(seed uint16, kRaw, dimRaw, shardsRaw uint8) bool {
		r := frand.New(uint64(seed) + 11)
		k := int(kRaw)%24 + 1
		dim := int(dimRaw)%16 + 1
		shards := int(shardsRaw)%8 + 1
		results := randResults(r, k, dim)
		global := results[0].Weights.Zero()

		want := weightedAverage(results)
		got := streamAggregate(FedAvg{}, global, results, shards, Default())

		for i := range want.Params {
			if !got.Params[i].AllClose(want.Params[i], 1e-4) {
				return false
			}
		}
		for i := range want.States {
			if !got.States[i].AllClose(want.States[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the streamed aggregate is insensitive to the shard split — any
// two worker counts agree far below float32 precision. (Float64 shard sums
// bound the split's effect to double-precision rounding; exact bit equality
// is not guaranteed because float64 addition is still non-associative.)
func TestStreamingShardInvariance(t *testing.T) {
	f := func(seed uint16, kRaw, s1Raw, s2Raw uint8) bool {
		r := frand.New(uint64(seed) + 23)
		k := int(kRaw)%24 + 1
		s1 := int(s1Raw)%8 + 1
		s2 := int(s2Raw)%8 + 1
		results := randResults(r, k, 9)
		global := results[0].Weights.Zero()
		a := streamAggregate(FedAvg{}, global, results, s1, Default())
		b := streamAggregate(FedAvg{}, global, results, s2, Default())
		for i := range a.Params {
			if !a.Params[i].AllClose(b.Params[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// barrierOnly hides the wrapped strategy's StreamingAggregator (the
// embedded interface exposes only Strategy's methods), so the server folds
// it through the collecting accumulator and its own Aggregate — the
// reference the streaming fold is checked against.
type barrierOnly struct{ Strategy }

// End-to-end: a streaming server run matches a collect-then-Aggregate run of
// the same config within float32 tolerance, with parallel workers.
func TestStreamingServerMatchesBarrier(t *testing.T) {
	stream := fixtureServer(t, FedAvg{}, 4)
	barrier := fixtureServer(t, barrierOnly{FedAvg{}}, 4)
	stream.Run(nil)
	barrier.Run(nil)
	for i := range stream.Global.Params {
		if !stream.Global.Params[i].AllClose(barrier.Global.Params[i], 1e-5) {
			t.Fatalf("param %d diverged between streaming and barrier paths", i)
		}
	}
	for i := range stream.Global.States {
		if !stream.Global.States[i].AllClose(barrier.Global.States[i], 1e-5) {
			t.Fatalf("state %d diverged between streaming and barrier paths", i)
		}
	}
}

// Round stats assembled from streamed (weight-stripped) results must still
// carry all the scalar accounting. (The stripping itself is internal to
// RunRound and not observable here.)
func TestStreamingRoundStatsIntact(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 3)
	stats := srv.RunRound(0)
	if len(stats.Sampled) != srv.Cfg.ClientsPerRound {
		t.Fatalf("sampled %d clients, want %d", len(stats.Sampled), srv.Cfg.ClientsPerRound)
	}
	if stats.MeanLoss <= 0 || stats.MeanInit <= 0 {
		t.Fatalf("losses not populated: %+v", stats)
	}
	if stats.BytesUp <= 0 || stats.BytesDown <= 0 {
		t.Fatalf("communication accounting not populated: %+v", stats)
	}
}

// An accumulator that never saw a result must finalize to the unchanged
// global weights (the all-dropped-round contract).
func TestEmptyAccumulatorFinalizesToGlobal(t *testing.T) {
	global := nn.Weights{Params: []*tensor.Tensor{tensor.Full(3, 4)}}
	acc := FedAvg{}.NewAccumulator(global, Default())
	out := acc.Finalize()
	if !out.Params[0].AllClose(global.Params[0], 0) {
		t.Fatal("empty accumulator did not return global weights")
	}
}

// FedProx shares FedAvg's fold; both must expose the streaming capability,
// while result-hungry strategies must not (the synchronous server collects
// their results for Aggregate, and the asynchronous server rejects them).
func TestStreamingCapabilityMatrix(t *testing.T) {
	for _, s := range []Strategy{FedAvg{}, &FedProx{Mu: 0.1}} {
		if _, ok := s.(StreamingAggregator); !ok {
			t.Fatalf("%s should stream", s.Name())
		}
	}
	for _, s := range []Strategy{&QFedAvg{Q: 1}, &Scaffold{}} {
		if _, ok := s.(StreamingAggregator); ok {
			t.Fatalf("%s must keep the barrier path", s.Name())
		}
	}
}

// Race coverage: parallel workers with dropout exercise the shard-merge
// path, the per-worker scratch buffers, and per-worker accumulators
// concurrently.
// Run with -race in CI.
func TestRunRoundParallelDropoutRace(t *testing.T) {
	srv := fixtureServer(t, FedAvg{}, 4)
	srv.Cfg.ClientDropout = 0.3
	var sampled, dropped int
	srv.Run(func(s RoundStats) {
		sampled += len(s.Sampled)
		dropped += len(s.Dropped)
	})
	if sampled+dropped != srv.Cfg.Rounds*srv.Cfg.ClientsPerRound {
		t.Fatalf("participation accounting broke under streaming: %d+%d", sampled, dropped)
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after parallel streaming rounds")
		}
	}
}

// Strategies without a streaming fold run on the same shard loop through
// the collecting accumulator: contiguous client blocks merged left to right
// hand Aggregate the admitted results in sampling order, so the worker
// count cannot change a bit — of the globals or of the round stats — and
// every run equals Aggregate over results collected serially.
func TestBarrierStrategiesWorkerInvariant(t *testing.T) {
	const rounds = 4
	for _, mk := range []func() Strategy{
		func() Strategy { return &QFedAvg{Q: 1e-6} },
		func() Strategy { return &Scaffold{} },
	} {
		t.Run(mk().Name(), func(t *testing.T) {
			run := func(workers int) (nn.Weights, []RoundStats) {
				srv := fixtureServer(t, mk(), workers)
				var stats []RoundStats
				for r := 0; r < rounds; r++ {
					stats = append(stats, srv.RunRound(r))
				}
				return srv.Global, stats
			}
			g1, st1 := run(1)
			g3, st3 := run(3)
			requireBitIdentical(t, g1, g3, "workers 1 vs 3")
			if !reflect.DeepEqual(st1, st3) {
				t.Fatalf("round stats differ between workers 1 and 3:\n%+v\n%+v", st1, st3)
			}

			// Reference: train the sampled clients one after another on one
			// replica, then Aggregate their results.
			strat := mk()
			ref := fixtureServer(t, strat, 1)
			for r := 0; r < rounds; r++ {
				var results []ClientResult
				for _, c := range ref.SampleClients() {
					results = append(results, localUpdate(strat, ref.nets[0], ref.Global, c, ref.Cfg, ref.Loss, r, nil))
				}
				ref.Global = strat.Aggregate(ref.Global, results, ref.Cfg)
			}
			requireBitIdentical(t, ref.Global, g1, fmt.Sprintf("serial Aggregate vs server (%d rounds)", rounds))
		})
	}
}
