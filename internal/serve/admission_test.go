package serve

import (
	"math"
	"strings"
	"testing"
)

// overloadLoad is a closed-loop population that demands far more than one
// worker can serve (batch of 4 costs 4 time units, 24 clients think 0.2), so
// without admission control queueing grows to the full population.
func overloadLoad() LoadConfig {
	return LoadConfig{
		Requests:    400,
		Concurrency: 24,
		Arrival:     ClosedLoop{Think: 0.2, Seed: 5},
		Service:     AffineService{Base: 2, PerItem: 0.5},
		Inputs:      testInputs(16),
	}
}

func overloadConfig(a AdmissionConfig) Config {
	return Config{MaxBatch: 4, BatchBudget: 0.2, Workers: 1, IntraOp: 2, Admission: a}
}

func TestParseAdmission(t *testing.T) {
	good := map[string]AdmissionConfig{
		"":      {},
		"off":   {},
		"64,12": {Depth: 64, Deadline: 12},
		"8,0":   {Depth: 8},
		"0,2.5": {Deadline: 2.5},
	}
	for spec, want := range good {
		got, err := ParseAdmission(spec)
		if err != nil || got != want {
			t.Fatalf("ParseAdmission(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	for _, spec := range []string{"8", "x,1", "-1,2", "1,-2", "1,2,3garbage"} {
		if _, err := ParseAdmission(spec); err == nil {
			t.Fatalf("ParseAdmission(%q) accepted", spec)
		}
	}
}

// A bounded admission depth must cap the pending queue at exactly Depth, shed
// the overflow deterministically, and account for every request either way.
func TestAdmissionDepthBoundsQueue(t *testing.T) {
	lc := overloadLoad()
	cfg := overloadConfig(AdmissionConfig{Depth: 8})
	r := mustLoad(t, cfg, lc)
	if r.MaxQueue > 8 {
		t.Fatalf("pending queue reached %d, admission depth is 8", r.MaxQueue)
	}
	if r.ShedQueue == 0 || r.Reissues == 0 {
		t.Fatalf("overload with depth 8 shed nothing: %+v", r)
	}
	if r.ShedDeadline != 0 {
		t.Fatalf("deadline sheds without a deadline: %+v", r)
	}
	if r.Served+r.ShedQueue != r.Requests || r.Requests != lc.Requests {
		t.Fatalf("request accounting doesn't balance: %+v", r)
	}
	if int64(r.Served) != r.Hist.Count() {
		t.Fatalf("histogram holds %d requests, served %d", r.Hist.Count(), r.Served)
	}

	// Shedding is part of the deterministic schedule: bit-identical across
	// runs and across intra-op budgets.
	if again := mustLoad(t, cfg, lc); again != r {
		t.Fatalf("admission run not reproducible:\n%+v\nvs\n%+v", again, r)
	}
	cfg.IntraOp = 7
	if other := mustLoad(t, cfg, lc); other != r {
		t.Fatalf("admission run depends on intra-op budget:\n%+v\nvs\n%+v", other, r)
	}
}

// Deadline shedding drops requests whose queueing wait already blew the
// budget, which bounds every served latency by deadline + max batch cost —
// the stable-p99-under-overload contract.
func TestAdmissionDeadlineBoundsTail(t *testing.T) {
	lc := overloadLoad()
	const deadline = 6.0
	r := mustLoad(t, overloadConfig(AdmissionConfig{Deadline: deadline}), lc)
	if r.ShedDeadline == 0 {
		t.Fatalf("overload with deadline %g shed nothing: %+v", deadline, r)
	}
	if r.Served+r.ShedDeadline != r.Requests {
		t.Fatalf("request accounting doesn't balance: %+v", r)
	}
	// A served request waited at most deadline when its batch started and
	// then paid at most a full batch's service time.
	bound := deadline + 2 + 0.5*4
	if r.P99 > bound || r.MeanLatency > bound {
		t.Fatalf("served latency beyond the deadline bound %g: %+v", bound, r)
	}
	unbounded := mustLoad(t, overloadConfig(AdmissionConfig{}), lc)
	if r.P99 >= unbounded.P99 {
		t.Fatalf("deadline shedding did not improve tail latency: %g vs %g", r.P99, unbounded.P99)
	}
}

// Admission limits that never trigger must not change the run at all — same
// schedule, latencies, and served outputs; only the digest moves, by exactly
// the deterministic counter fold.
func TestAdmissionIdleIsInvisible(t *testing.T) {
	lc := overloadLoad()
	off := mustLoad(t, overloadConfig(AdmissionConfig{}), lc)
	on := mustLoad(t, overloadConfig(AdmissionConfig{Depth: 1 << 20, Deadline: 1e9}), lc)
	if on.ShedQueue != 0 || on.ShedDeadline != 0 || on.Reissues != 0 {
		t.Fatalf("idle admission shed something: %+v", on)
	}
	if on.Served != off.Served || on.MaxQueue != off.MaxQueue {
		t.Fatalf("idle admission changed accounting: %+v vs %+v", on, off)
	}
	want := off.OutputDigest
	for _, c := range [...]int{on.Served, on.ShedQueue, on.ShedDeadline, on.Reissues, on.MaxQueue} {
		want = foldU64(want, uint64(c))
	}
	if on.OutputDigest != want {
		t.Fatalf("idle admission perturbed outputs: digest %016x, want %016x", on.OutputDigest, want)
	}
	off.OutputDigest = on.OutputDigest
	if off != on {
		t.Fatalf("idle admission changed the schedule:\n%+v\nvs\n%+v", off, on)
	}
	if !strings.Contains(on.String(), "admission served=") {
		t.Fatalf("report omits the admission line:\n%s", on.String())
	}
}

// Depth and deadline compose, stay reproducible under combined shedding, and
// open-loop overload (the regime with truly unbounded queues) is tamed too.
func TestAdmissionOpenLoopOverload(t *testing.T) {
	lc := LoadConfig{
		Requests: 300,
		Arrival:  OpenLoop{Rate: 4, Seed: 11}, // 4 req/unit vs capacity 1
		Service:  AffineService{Base: 2, PerItem: 0.5},
		Inputs:   testInputs(16),
	}
	cfg := overloadConfig(AdmissionConfig{Depth: 12, Deadline: 8})
	r := mustLoad(t, cfg, lc)
	if r.MaxQueue > 12 {
		t.Fatalf("pending queue reached %d, admission depth is 12", r.MaxQueue)
	}
	if r.ShedQueue == 0 {
		t.Fatalf("open-loop overload at depth 12 shed nothing: %+v", r)
	}
	if r.Reissues != 0 {
		t.Fatalf("open loop has no clients to reissue: %+v", r)
	}
	if r.Served+r.ShedQueue+r.ShedDeadline != lc.Requests {
		t.Fatalf("request accounting doesn't balance: %+v", r)
	}
	if again := mustLoad(t, cfg, lc); again != r {
		t.Fatalf("combined admission run not reproducible:\n%+v\nvs\n%+v", again, r)
	}
}

// FuzzParseAdmission: hostile admission specs must error, never panic, and
// every accepted config must have a non-negative depth and a finite,
// non-negative deadline.
func FuzzParseAdmission(f *testing.F) {
	for _, spec := range []string{"", "off", "64,12", "8,0", "0,2.5", "1,nan", "1,inf"} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, err := ParseAdmission(spec)
		if err != nil {
			return
		}
		if a.Depth < 0 || !(a.Deadline >= 0) || math.IsInf(a.Deadline, 0) {
			t.Fatalf("ParseAdmission(%q) accepted %+v", spec, a)
		}
	})
}
