package main

import (
	"sync"
	"sync/atomic"

	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
)

// strategyTimer is the shared state of one decorated strategy: the tracer,
// the span prefix of the strategy's module ("core" for HeteroSwitch, "fl"
// for FedAvg), the parent span and key the benchmark sets around each round
// or job, and the worker index of every training replica seen so far.
type strategyTimer struct {
	tr     *tracer
	prefix string

	parent atomic.Int32
	key    atomic.Int64

	mu      sync.Mutex
	workers map[*nn.Network]int32
	accs    atomic.Int32

	samples atomic.Int64
}

// setRound makes subsequent spans children of span parent, keyed by key.
// Call it between rounds or jobs, never while the engine is running.
func (t *strategyTimer) setRound(parent int32, key int64) {
	t.parent.Store(parent)
	t.key.Store(key)
}

func (t *strategyTimer) worker(net *nn.Network) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.workers[net]
	if !ok {
		id = int32(len(t.workers)) + 1
		t.workers[net] = id
	}
	return id
}

func (t *strategyTimer) begin(name string, tid int32) int32 {
	return t.tr.begin(name, t.parent.Load(), t.key.Load(), tid)
}

// timeStrategy wraps s so every call into it records a span. The wrapper
// implements fl.StreamingAggregator exactly when s does, and its
// accumulators forward exactly the optional capabilities of the wrapped
// ones, so both engines take the same code paths as with s itself.
func timeStrategy(s fl.Strategy, tr *tracer, prefix string) (fl.Strategy, *strategyTimer) {
	t := &strategyTimer{tr: tr, prefix: prefix, workers: map[*nn.Network]int32{}}
	t.parent.Store(-1)
	base := &timedStrategy{inner: s, t: t}
	if sa, ok := s.(fl.StreamingAggregator); ok {
		return &timedStreaming{timedStrategy: base, sa: sa}, t
	}
	return base, t
}

type timedStrategy struct {
	inner fl.Strategy
	t     *strategyTimer
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) LocalUpdate(ctx *fl.ClientContext) fl.ClientResult {
	sp := s.t.begin(s.t.prefix+".local_update", s.t.worker(ctx.Net))
	r := s.inner.LocalUpdate(ctx)
	s.t.tr.end(sp)
	s.t.samples.Add(int64(r.NumSamples))
	return r
}

func (s *timedStrategy) Aggregate(global nn.Weights, results []fl.ClientResult, cfg fl.Config) nn.Weights {
	sp := s.t.begin(s.t.prefix+".aggregate", -1)
	defer s.t.tr.end(sp)
	return s.inner.Aggregate(global, results, cfg)
}

type timedStreaming struct {
	*timedStrategy
	sa fl.StreamingAggregator
}

func (s *timedStreaming) NewAccumulator(global nn.Weights, cfg fl.Config) fl.Accumulator {
	return wrapAccumulator(s.sa.NewAccumulator(global, cfg), s.t)
}

// timedAcc is the part of every accumulator wrapper that each Accumulator
// has; the capability parts below are embedded only when the wrapped
// accumulator has them.
type timedAcc struct {
	inner fl.Accumulator
	t     *strategyTimer
	tid   int32
}

func (a *timedAcc) base() *timedAcc { return a }

func (a *timedAcc) Accumulate(r fl.ClientResult) {
	sp := a.t.begin("fl.accumulate", a.tid)
	a.inner.Accumulate(r)
	a.t.tr.end(sp)
}

// Merge unwraps other: the wrapped accumulators type-assert their own
// concrete type on the argument.
func (a *timedAcc) Merge(other fl.Accumulator) {
	sp := a.t.begin("fl.merge", a.tid)
	a.inner.Merge(other.(interface{ base() *timedAcc }).base().inner)
	a.t.tr.end(sp)
}

func (a *timedAcc) Finalize() nn.Weights {
	sp := a.t.begin("fl.finalize", a.tid)
	defer a.t.tr.end(sp)
	return a.inner.Finalize()
}

type weightedPart struct {
	a *timedAcc
	w fl.WeightedAccumulator
}

func (p weightedPart) AccumulateWeighted(r fl.ClientResult, scale float64) {
	sp := p.a.t.begin("fl.accumulate_weighted", p.a.tid)
	p.w.AccumulateWeighted(r, scale)
	p.a.t.tr.end(sp)
}

type resetPart struct{ r fl.ResettableAccumulator }

func (p resetPart) Reset(global nn.Weights, cfg fl.Config) { p.r.Reset(global, cfg) }

type intoPart struct {
	a *timedAcc
	f fl.IntoFinalizer
}

func (p intoPart) FinalizeInto(dst nn.Weights) bool {
	sp := p.a.t.begin("fl.finalize", p.a.tid)
	defer p.a.t.tr.end(sp)
	return p.f.FinalizeInto(dst)
}

// wrapAccumulator returns a timed accumulator whose method set is exactly
// acc's: one struct type per combination of the three optional
// capabilities.
func wrapAccumulator(acc fl.Accumulator, t *strategyTimer) fl.Accumulator {
	a := &timedAcc{inner: acc, t: t, tid: 100 + t.accs.Add(1) - 1}
	w, isW := acc.(fl.WeightedAccumulator)
	r, isR := acc.(fl.ResettableAccumulator)
	f, isF := acc.(fl.IntoFinalizer)
	wp, rp, fp := weightedPart{a, w}, resetPart{r}, intoPart{a, f}
	switch {
	case isW && isR && isF:
		return struct {
			*timedAcc
			weightedPart
			resetPart
			intoPart
		}{a, wp, rp, fp}
	case isW && isR:
		return struct {
			*timedAcc
			weightedPart
			resetPart
		}{a, wp, rp}
	case isW && isF:
		return struct {
			*timedAcc
			weightedPart
			intoPart
		}{a, wp, fp}
	case isR && isF:
		return struct {
			*timedAcc
			resetPart
			intoPart
		}{a, rp, fp}
	case isW:
		return struct {
			*timedAcc
			weightedPart
		}{a, wp}
	case isR:
		return struct {
			*timedAcc
			resetPart
		}{a, rp}
	case isF:
		return struct {
			*timedAcc
			intoPart
		}{a, fp}
	}
	return a
}
