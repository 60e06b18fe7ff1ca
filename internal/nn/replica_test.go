package nn

import (
	"sync"
	"testing"

	"heteroswitch/internal/frand"
	"heteroswitch/internal/tensor"
)

// Ensure must load exactly once per version: after a load, mutating the
// source weights without bumping the version must not change the replica's
// outputs (the served weights are pinned to the version key).
func TestReplicaEnsureVersionKeyed(t *testing.T) {
	rep := NewReplica(func() *Network { return smallNet(99) }, 1)
	src := smallNet(1)
	w := src.Snapshot()
	r := frand.New(3)
	x := tensor.Randn(r, 1, 2, 1, 8, 8)

	if err := rep.Ensure(0, w); err != nil {
		t.Fatal(err)
	}
	before := rep.Infer(x).Clone()
	w.Params[0].Data()[0] += 10 // corrupt without bumping the version
	if err := rep.Ensure(0, w); err != nil {
		t.Fatal(err)
	}
	if !rep.Infer(x).AllClose(before, 0) {
		t.Fatal("Ensure reloaded weights for an already-loaded version")
	}
	if err := rep.Ensure(1, w); err != nil {
		t.Fatal(err)
	}
	if rep.Infer(x).AllClose(before, 0) {
		t.Fatal("Ensure(new version) did not reload changed weights")
	}
	if rep.Version() != 1 {
		t.Fatalf("Version() = %d, want 1", rep.Version())
	}
}

// Concurrent replicas serving one version must agree bit-for-bit with a
// serial reference replica on the same version: the frozen fold is a pure
// function of the version's weights. Run with -race, this is also the data
// race test for the pool's Get/Ensure/Infer/Put cycle under version churn.
func TestReplicaPoolConcurrentBitIdentical(t *testing.T) {
	build := func() *Network { return smallNet(99) }
	pool := NewReplicaPool(4, build, 1)
	src := smallNet(1)

	// Two immutable versions, served interleaved.
	v0 := src.Snapshot()
	src.Params()[0].W.Data()[0] += 0.5
	v1 := src.Snapshot()
	versions := []Weights{v0, v1}

	ref := NewReplica(build, 1)
	r := frand.New(5)
	const requests = 64
	inputs := make([]*tensor.Tensor, requests)
	want := make([][]float32, requests)
	for i := range inputs {
		inputs[i] = tensor.Randn(r, 1, 2, 1, 8, 8)
		v := i % 2
		if err := ref.Ensure(v, versions[v]); err != nil {
			t.Fatal(err)
		}
		out := ref.Infer(inputs[i])
		want[i] = append([]float32(nil), out.Data()...)
	}

	got := make([][]float32, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := pool.Get()
			defer pool.Put(rep)
			v := i % 2
			if err := rep.Ensure(v, versions[v]); err != nil {
				t.Error(err)
				return
			}
			out := rep.Infer(inputs[i])
			got[i] = append([]float32(nil), out.Data()...)
		}(i)
	}
	wg.Wait()

	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d output[%d] = %v, want %v (replica disagrees with serial reference)",
					i, j, got[i][j], want[i][j])
			}
		}
	}
}

// The pool's Get/Put cycle is the steady-state request path: it must not
// allocate.
func TestReplicaPoolZeroAllocCycle(t *testing.T) {
	pool := NewReplicaPool(2, func() *Network { return smallNet(1) }, 1)
	allocs := testing.AllocsPerRun(100, func() {
		rep := pool.Get()
		pool.Put(rep)
	})
	if allocs != 0 {
		t.Fatalf("pool Get/Put allocates %v per cycle, want 0", allocs)
	}
}
