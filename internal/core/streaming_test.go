package core

import (
	"math"
	"testing"

	"heteroswitch/internal/fl"
	"heteroswitch/internal/nn"
)

// barrierOnly hides HeteroSwitch's StreamingAggregator (the embedded
// interface exposes only fl.Strategy's methods), so the server collects the
// round's results and calls HeteroSwitch.Aggregate.
type barrierOnly struct{ fl.Strategy }

// One round of streaming HeteroSwitch must match collect-then-Aggregate:
// same aggregated weights (within float32 tolerance) and the same L_EMA,
// since the accumulator folds the identical eq. 1 inputs per-result.
func TestHeteroSwitchStreamingMatchesBarrierRound(t *testing.T) {
	run := func(disable bool) (*HeteroSwitch, nn.Weights) {
		clients, _ := toyPopulation(33)
		cfg := fl.Config{
			Rounds: 1, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 1,
			LR: 0.1, Seed: 13, Workers: 2,
		}
		hs := New()
		var strat fl.Strategy = hs
		if disable {
			strat = barrierOnly{hs}
		}
		srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, strat, clients)
		if err != nil {
			t.Fatal(err)
		}
		srv.RunRound(0)
		return hs, srv.Global
	}
	hsStream, wStream := run(false)
	hsBarrier, wBarrier := run(true)

	ls, okS := hsStream.LEMA()
	lb, okB := hsBarrier.LEMA()
	if !okS || !okB {
		t.Fatal("L_EMA not initialized after the first round")
	}
	if math.Abs(ls-lb) > 1e-9 {
		t.Fatalf("L_EMA diverged: streaming %v vs barrier %v", ls, lb)
	}
	for i := range wStream.Params {
		if !wStream.Params[i].AllClose(wBarrier.Params[i], 1e-5) {
			t.Fatalf("param %d diverged between streaming and barrier HeteroSwitch", i)
		}
	}
}

// Race coverage for the lema mutex and the shard-merge path: parallel
// workers, dropout, and full switching (LocalUpdate reads LEMA while
// Finalize writes it). Run with -race in CI.
func TestHeteroSwitchParallelDropoutRace(t *testing.T) {
	clients, _ := toyPopulation(47)
	cfg := fl.Config{
		Rounds: 10, ClientsPerRound: 5, BatchSize: 4, LocalEpochs: 1,
		LR: 0.1, Seed: 29, Workers: 4, ClientDropout: 0.25,
	}
	hs := New()
	srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, hs, clients)
	if err != nil {
		t.Fatal(err)
	}
	srv.Run(nil)
	if lema, ok := hs.LEMA(); !ok || math.IsNaN(lema) {
		t.Fatalf("L_EMA bad after parallel run: %v (%v)", lema, ok)
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights after parallel streaming HeteroSwitch")
		}
	}
}

// The SWAD per-batch snapshot buffer must not leak into results: two
// consecutive rounds in ModeTransformSWAD (SWAD always on) must keep
// producing finite, changing weights.
func TestSWADBufferReuseAcrossRounds(t *testing.T) {
	clients, _ := toyPopulation(61)
	cfg := fl.Config{
		Rounds: 3, ClientsPerRound: 4, BatchSize: 4, LocalEpochs: 2,
		LR: 0.1, Seed: 7, Workers: 2,
	}
	srv, err := fl.NewServer(cfg, toyBuilder(), nn.SoftmaxCrossEntropy{}, NewWithMode(ModeTransformSWAD), clients)
	if err != nil {
		t.Fatal(err)
	}
	prev := srv.Global.Clone()
	srv.Run(nil)
	if srv.Global.Params[0].AllClose(prev.Params[0], 0) {
		t.Fatal("SWAD rounds did not update the global weights")
	}
	for _, p := range srv.Global.Params {
		if p.HasNaN() {
			t.Fatal("NaN weights from SWAD buffer reuse")
		}
	}
}
