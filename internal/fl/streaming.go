package fl

import "heteroswitch/internal/nn"

// StreamingAggregator is an optional Strategy capability: strategies whose
// aggregation rule folds one client result at a time (FedAvg and friends)
// implement it so the server can stream aggregation instead of materializing
// all K client weight snapshots behind a round barrier. Each worker goroutine
// folds its clients into a private shard Accumulator; shards are merged
// tree-style at round end. Peak weight memory is then O(workers), not O(K).
//
// Strategies that genuinely need every result at once (q-FedAvg's normalized
// step, SCAFFOLD's control-variate update) don't implement this interface:
// the synchronous server folds them through a collecting accumulator that
// hands the round's results to Strategy.Aggregate, and the asynchronous
// server rejects them.
type StreamingAggregator interface {
	// NewAccumulator returns a fresh shard accumulator for one round. It is
	// called once per worker; the returned accumulator is used from that
	// worker's goroutine only, until Merge/Finalize on the main goroutine.
	NewAccumulator(global nn.Weights, cfg Config) Accumulator
}

// Accumulator folds client results into running aggregation state.
type Accumulator interface {
	// Accumulate folds one client's result into the shard. The result's
	// weight buffers may be reused by the caller immediately afterwards, so
	// implementations must not retain them.
	Accumulate(result ClientResult)
	// Merge absorbs another accumulator produced by the same
	// StreamingAggregator for the same round.
	Merge(other Accumulator)
	// Finalize returns the round's new global weights. Called once, on the
	// root accumulator after all shards are merged. With no accumulated
	// results it returns the unchanged global weights.
	Finalize() nn.Weights
}

// IntoFinalizer is an optional Accumulator capability: accumulators that can
// write the round's new global weights into a caller-provided buffer
// implement it so the server can double-buffer the outgoing global instead
// of allocating a model-sized nn.Weights every round. dst must be shaped
// like the round's global weights; every element is overwritten on success.
// FinalizeInto returns false — leaving dst untouched — when nothing was
// accumulated (the round lost every client), in which case the caller keeps
// the old global, exactly as Finalize would have returned it.
type IntoFinalizer interface {
	FinalizeInto(dst nn.Weights) bool
}

// WeightedAccumulator is an optional Accumulator capability: accumulators
// that can fold a client result with an extra multiplicative weight implement
// it so the asynchronous server can discount stale results. scale multiplies
// the result's native fold weight (its sample count, for the FedAvg family);
// AccumulateWeighted(r, 1) must be exactly Accumulate(r), bit for bit — that
// identity is what keeps the zero-staleness async path equivalent to the
// synchronous one. A scale of 0 contributes nothing to the aggregate.
type WeightedAccumulator interface {
	Accumulator
	AccumulateWeighted(result ClientResult, scale float64)
}

// ResettableAccumulator is an optional Accumulator capability: accumulators
// whose state can be rewound implement it so the server reuses one
// accumulator per worker for its whole lifetime instead of allocating
// model-sized float64 sum buffers every round. Reset must leave the
// accumulator exactly as NewAccumulator(global, cfg) would have.
type ResettableAccumulator interface {
	Accumulator
	Reset(global nn.Weights, cfg Config)
}

// fedAvgAccumulator streams the sample-count-weighted average. Sums are kept
// in float64 and rounded to float32 exactly once, in Finalize, so the
// shard-merge order (which depends on the worker count) perturbs the result
// by at most double-precision rounding — in practice below float32
// resolution. Combined with the server's static client→worker assignment,
// runs with a fixed config are bit-reproducible.
type fedAvgAccumulator struct {
	global nn.Weights
	params [][]float64 // Σ n_k · w_k per param tensor
	states [][]float64 // Σ n_k · s_k per state tensor
	total  float64     // Σ n_k
}

// NewAccumulator implements StreamingAggregator for FedAvg.
func (FedAvg) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	a := &fedAvgAccumulator{
		global: global,
		params: make([][]float64, len(global.Params)),
		states: make([][]float64, len(global.States)),
	}
	for i, p := range global.Params {
		a.params[i] = make([]float64, p.Size())
	}
	for i, s := range global.States {
		a.states[i] = make([]float64, s.Size())
	}
	return a
}

// NewAccumulator implements StreamingAggregator: FedProx aggregates exactly
// like FedAvg (the proximal term only changes the local objective).
func (p *FedProx) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return FedAvg{}.NewAccumulator(global, cfg)
}

// Accumulate implements Accumulator.
func (a *fedAvgAccumulator) Accumulate(r ClientResult) {
	a.AccumulateWeighted(r, 1)
}

// AccumulateWeighted implements WeightedAccumulator: the fold weight is
// scale·n_k, so the async server's staleness discount composes with FedAvg's
// sample weighting. scale = 1 is byte-for-byte the synchronous fold.
func (a *fedAvgAccumulator) AccumulateWeighted(r ClientResult, scale float64) {
	// Fail as loudly as Aggregate's weightedAverage would: a short
	// result would otherwise grow total without touching the sums, silently
	// shrinking the aggregate toward zero.
	if len(r.Weights.Params) != len(a.params) || len(r.Weights.States) != len(a.states) {
		panic("fl: streamed result weight count incompatible with accumulator")
	}
	// A zero scale contributes nothing: skip the model-sized fold entirely,
	// also keeping 0·±Inf/0·NaN from a diverged (and deliberately zeroed-out)
	// result off the sums.
	if scale == 0 {
		return
	}
	n := scale * float64(r.NumSamples)
	for i, p := range r.Weights.Params {
		dst, src := a.params[i], p.Data()
		if len(src) != len(dst) {
			panic("fl: streamed result param size incompatible with accumulator")
		}
		for j, v := range src {
			dst[j] += n * float64(v)
		}
	}
	for i, s := range r.Weights.States {
		dst, src := a.states[i], s.Data()
		if len(src) != len(dst) {
			panic("fl: streamed result state size incompatible with accumulator")
		}
		for j, v := range src {
			dst[j] += n * float64(v)
		}
	}
	a.total += n
}

// Reset implements ResettableAccumulator: the float64 sum buffers are kept
// and zeroed, so one accumulator per worker serves every round.
func (a *fedAvgAccumulator) Reset(global nn.Weights, cfg Config) {
	a.global = global
	a.total = 0
	for _, sum := range a.params {
		clear(sum)
	}
	for _, sum := range a.states {
		clear(sum)
	}
}

// Merge implements Accumulator.
func (a *fedAvgAccumulator) Merge(other Accumulator) {
	b := other.(*fedAvgAccumulator)
	for i, src := range b.params {
		dst := a.params[i]
		for j, v := range src {
			dst[j] += v
		}
	}
	for i, src := range b.states {
		dst := a.states[i]
		for j, v := range src {
			dst[j] += v
		}
	}
	a.total += b.total
}

// Finalize implements Accumulator.
func (a *fedAvgAccumulator) Finalize() nn.Weights {
	if a.total == 0 {
		return a.global
	}
	out := a.global.Zero()
	a.FinalizeInto(out)
	return out
}

// FinalizeInto implements IntoFinalizer: the sample-weighted average is
// rounded from the float64 sums straight into dst's float32 tensors, the
// same single rounding Finalize performs, so the recycled and allocating
// paths are bit-identical.
func (a *fedAvgAccumulator) FinalizeInto(dst nn.Weights) bool {
	if a.total == 0 {
		return false
	}
	if len(dst.Params) != len(a.params) || len(dst.States) != len(a.states) {
		panic("fl: FinalizeInto buffer incompatible with accumulator")
	}
	inv := 1.0 / a.total
	for i, sum := range a.params {
		d := dst.Params[i].Data()
		if len(d) != len(sum) {
			panic("fl: FinalizeInto param size incompatible with accumulator")
		}
		for j, v := range sum {
			d[j] = float32(v * inv)
		}
	}
	for i, sum := range a.states {
		d := dst.States[i].Data()
		if len(d) != len(sum) {
			panic("fl: FinalizeInto state size incompatible with accumulator")
		}
		for j, v := range sum {
			d[j] = float32(v * inv)
		}
	}
	return true
}

// interface conformance checks
var (
	_ WeightedAccumulator   = (*fedAvgAccumulator)(nil)
	_ ResettableAccumulator = (*fedAvgAccumulator)(nil)
	_ IntoFinalizer         = (*fedAvgAccumulator)(nil)
)

// mergeShards folds accs[1:] into accs[0] tree-style (pairwise, doubling
// stride) and returns the root, ready to finalize. Tree order keeps the
// merge O(log W) deep; the accumulators' float64 sums make the order
// numerically immaterial.
func mergeShards(accs []Accumulator) Accumulator {
	for stride := 1; stride < len(accs); stride *= 2 {
		for i := 0; i+stride < len(accs); i += 2 * stride {
			accs[i].Merge(accs[i+stride])
		}
	}
	return accs[0]
}

// collector is the synchronous server's StreamingAggregator for strategies
// without a streaming fold: its accumulators keep every admitted result and
// Finalize hands them to the strategy's own Aggregate. It is not attached
// to the strategies themselves, so they stay barrier-only everywhere else
// (the asynchronous server still rejects them).
type collector struct{ strategy Strategy }

// NewAccumulator implements StreamingAggregator.
func (c collector) NewAccumulator(global nn.Weights, cfg Config) Accumulator {
	return &collectingAccumulator{strategy: c.strategy, global: global, cfg: cfg}
}

// collectingAccumulator materializes its shard's results in fold order.
// Workers train contiguous client blocks and mergeShards always merges the
// right shard into the left, so the root holds the round's admitted results
// in sampling order — exactly what Strategy.Aggregate expects.
type collectingAccumulator struct {
	strategy Strategy
	global   nn.Weights
	cfg      Config
	results  []ClientResult
}

// Accumulate implements Accumulator. The weights are cloned: they may alias
// the worker's scratch buffer, which the next client overwrites.
func (a *collectingAccumulator) Accumulate(r ClientResult) {
	r.Weights = r.Weights.Clone()
	a.results = append(a.results, r)
}

// Merge implements Accumulator: other's results follow a's.
func (a *collectingAccumulator) Merge(other Accumulator) {
	a.results = append(a.results, other.(*collectingAccumulator).results...)
}

// Finalize implements Accumulator.
func (a *collectingAccumulator) Finalize() nn.Weights {
	if len(a.results) == 0 {
		return a.global
	}
	return a.strategy.Aggregate(a.global, a.results, a.cfg)
}
