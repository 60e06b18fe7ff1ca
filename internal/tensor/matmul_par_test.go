package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"heteroswitch/internal/frand"
)

// Gemm promises BIT-identical results to its serial path at every budget:
// row partitioning never splits a single output element's accumulation, so
// not even float rounding may differ. Every comparison here is exact
// equality, across shapes chosen to produce ragged partitions (M and N not
// multiples of the tile width, the worker count, or each other) and budgets
// from serial to beyond the machine.

var parShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 64, 128},
	{13, 17, 19},
	{31, 64, 67},   // grain-sized rows, odd n
	{65, 64, 67},   // > one tile of ragged rows
	{65, 33, 129},  // everything odd
	{128, 96, 100}, // big enough that every budget actually splits
}

var parBudgets = []int{1, 2, 3, 4, 8, 16}

func exactEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs: %v != %v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

// checkGemmBitIdentical runs each of the given Trans forms, overwriting and
// accumulating, plain and with a fused epilogue, under both backends (Gemm
// never consults the backend) over shapes, comparing Gemm(par, …) at every
// budget against the serial Gemm(1, …) followed by a separate per-row
// epilogue pass. Overwriting forms start from junk that must be fully
// replaced. TransB's accumulate additionally adds each finished dot product
// onto out in one rounding step.
func checkGemmBitIdentical(t *testing.T, seed uint64, shapes []struct{ m, k, n int }, budgets []int, trs ...Trans) {
	t.Helper()
	r := frand.New(seed)
	for _, be := range []Backend{BackendSerial, BackendInt8} {
		forceBackend(t, be)
		for _, tr := range trs {
			for _, acc := range []bool{false, true} {
				for _, fused := range []bool{false, true} {
					for _, sz := range shapes {
						m, k, n := sz.m, sz.k, sz.n
						// m·k and k·n elements serve every storage order.
						a := Randn(r, 1, m, k).Data()
						b := Randn(r, 1, k, n).Data()
						base := Randn(r, 1, m, n).Data()
						want := slices.Clone(base)
						Gemm(1, tr, acc, want, a, b, m, k, n, nil)
						if tr == TransB && acc {
							prod := make([]float32, m*n)
							Gemm(1, TransB, false, prod, a, b, m, k, n, nil)
							for i := range prod {
								prod[i] += base[i]
							}
							exactEqual(t, fmt.Sprintf("TransB acc one rounding %dx%dx%d", m, k, n), want, prod)
						}
						var ep RowEpilogue
						if fused {
							e := &testEpilogue{bias: Randn(r, 1, m).Data()}
							for i := 0; i < m; i++ {
								e.Apply(want[i*n:(i+1)*n], i)
							}
							ep = e
						}
						for _, par := range budgets {
							got := slices.Clone(base)
							Gemm(par, tr, acc, got, a, b, m, k, n, ep)
							exactEqual(t, fmt.Sprintf("backend=%s Gemm(%d, trans=%d, acc=%v, ep=%v) %dx%dx%d",
								be, par, tr, acc, fused, m, k, n), got, want)
						}
					}
				}
			}
		}
	}
}

// TestMatMulIntoPBitIdentical covers out = a @ b and out += a @ b.
func TestMatMulIntoPBitIdentical(t *testing.T) {
	checkGemmBitIdentical(t, 21, parShapes, parBudgets, NoTrans)
}

// TestMatMulSlicesPBitIdentical covers the NoTrans form again from a fresh
// seed; its accumulating arm is what the weight-stationary wrappers run when
// asked to accumulate.
func TestMatMulSlicesPBitIdentical(t *testing.T) {
	checkGemmBitIdentical(t, 24, parShapes, parBudgets, NoTrans)
}

// TestMatMulTransBIntoPBitIdentical covers out = a @ bᵀ and out += a @ bᵀ,
// including the one-rounding accumulate check.
func TestMatMulTransBIntoPBitIdentical(t *testing.T) {
	checkGemmBitIdentical(t, 22, parShapes, parBudgets, TransB)
}

// TestMatMulTransAAccPBitIdentical covers out += aᵀ @ b (the weight-gradient
// kernel), whose parallel dimension is the result's rows (a's columns), and
// its overwriting form.
func TestMatMulTransAAccPBitIdentical(t *testing.T) {
	checkGemmBitIdentical(t, 23, parShapes, parBudgets, TransA)
}

// TestMatMulEpilogueBitIdentical: the fused epilogue runs row-locally inside
// each chunk, so a fused Gemm must equal the unfused Gemm followed by the
// same per-row pass, bit for bit, at every budget, in every Trans form,
// overwriting or accumulating.
func TestMatMulEpilogueBitIdentical(t *testing.T) {
	checkGemmBitIdentical(t, 79, parShapes, parBudgets, NoTrans, TransA, TransB)
}

// TestMatMulPZeroAllocSteadyState verifies Gemm allocates nothing once warm,
// serial or parallel, with a fused epilogue, in every Trans form — the
// kernels must be safe on the zero-allocation training hot path.
func TestMatMulPZeroAllocSteadyState(t *testing.T) {
	r := frand.New(25)
	a := Randn(r, 1, 128, 96).Data()
	b := Randn(r, 1, 96, 100).Data()
	out := make([]float32, 128*100)
	ep := &testEpilogue{bias: Randn(r, 1, 128).Data()}
	for _, tr := range []Trans{NoTrans, TransA, TransB} {
		for _, par := range []int{1, 4} {
			Gemm(par, tr, false, out, a, b, 128, 96, 100, ep) // warm pool + task pools
			allocs := testing.AllocsPerRun(20, func() {
				Gemm(par, tr, false, out, a, b, 128, 96, 100, ep)
			})
			if allocs != 0 {
				t.Fatalf("Gemm(%d, trans=%d) steady state allocates %.1f/op, want 0", par, tr, allocs)
			}
		}
	}
}

// FuzzGemm differentially checks Gemm on random shapes m, k, n ∈ [0, 70]
// (k = 0 and every n mod 4 tail included) for each Trans, overwrite or
// accumulate, and budgets 2, 3 and 5: the parallel result must be
// bit-identical to Gemm(1, …), and Gemm(1, …) must agree with a float64
// loop to 1e-4 relative to the magnitude sum Σ|base| + Σ|a·b| per element.
func FuzzGemm(f *testing.F) {
	// Seeds: every Trans × acc, plus k = 0 and m = 0.
	f.Add(uint8(70), uint8(70), uint8(70), uint8(0), false, uint8(0), uint64(1))
	f.Add(uint8(17), uint8(9), uint8(6), uint8(0), true, uint8(1), uint64(2))
	f.Add(uint8(21), uint8(11), uint8(7), uint8(1), false, uint8(2), uint64(3))
	f.Add(uint8(13), uint8(5), uint8(9), uint8(1), true, uint8(1), uint64(4))
	f.Add(uint8(19), uint8(6), uint8(5), uint8(2), false, uint8(0), uint64(5))
	f.Add(uint8(65), uint8(33), uint8(5), uint8(2), true, uint8(2), uint64(6))
	f.Add(uint8(13), uint8(0), uint8(7), uint8(1), true, uint8(1), uint64(7))
	f.Add(uint8(0), uint8(9), uint8(6), uint8(0), false, uint8(1), uint64(8))
	f.Fuzz(func(t *testing.T, mb, kb, nb, tb uint8, acc bool, pb uint8, seed uint64) {
		m, k, n := int(mb)%71, int(kb)%71, int(nb)%71
		tr := Trans(tb % 3)
		par := []int{2, 3, 5}[pb%3]
		r := frand.New(seed)
		fill := func(size int) []float32 {
			s := make([]float32, size)
			for i := range s {
				s[i] = float32(r.NormFloat64())
			}
			return s
		}
		a, b, base := fill(m*k), fill(k*n), fill(m*n)
		want := slices.Clone(base)
		Gemm(1, tr, acc, want, a, b, m, k, n, nil)
		got := slices.Clone(base)
		Gemm(par, tr, acc, got, a, b, m, k, n, nil)
		exactEqual(t, fmt.Sprintf("Gemm(%d, trans=%d, acc=%v) %dx%dx%d", par, tr, acc, m, k, n), got, want)

		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var ref, mag float64
				if acc {
					ref, mag = float64(base[i*n+j]), math.Abs(float64(base[i*n+j]))
				}
				for x := 0; x < k; x++ {
					var av, bv float32
					switch tr {
					case NoTrans:
						av, bv = a[i*k+x], b[x*n+j]
					case TransA:
						av, bv = a[x*m+i], b[x*n+j]
					case TransB:
						av, bv = a[i*k+x], b[j*k+x]
					}
					p := float64(av) * float64(bv)
					ref += p
					mag += math.Abs(p)
				}
				if d := math.Abs(float64(want[i*n+j]) - ref); d > 1e-4*mag {
					t.Fatalf("trans=%d acc=%v %dx%dx%d: [%d,%d] = %v, float64 %v (magnitude %v)",
						tr, acc, m, k, n, i, j, want[i*n+j], ref, mag)
				}
			}
		}
	})
}

// BenchmarkMatMulParallel extends BenchmarkMatMul with the intra-op
// dimension: the same Gemm forms at budgets 1/2/4/8 on kernel-sized and
// larger-than-cache matrices.
func BenchmarkMatMulParallel(b *testing.B) {
	r := frand.New(12)
	for _, sz := range []struct{ m, k, n int }{{64, 64, 64}, {128, 128, 128}, {256, 256, 256}} {
		a := Randn(r, 1, sz.m, sz.k)
		bb := Randn(r, 1, sz.k, sz.n)
		bt := Randn(r, 1, sz.n, sz.k)
		at := Randn(r, 1, sz.k, sz.m)
		out := New(sz.m, sz.n)
		for _, par := range []int{1, 2, 4, 8} {
			name := func(op string) string {
				return fmt.Sprintf("%s/%dx%dx%d/par=%d", op, sz.m, sz.k, sz.n, par)
			}
			b.Run(name("Into"), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Gemm(par, NoTrans, false, out.Data(), a.Data(), bb.Data(), sz.m, sz.k, sz.n, nil)
				}
			})
			b.Run(name("TransBInto"), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Gemm(par, TransB, false, out.Data(), a.Data(), bt.Data(), sz.m, sz.k, sz.n, nil)
				}
			})
			b.Run(name("TransAAccInto"), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					Gemm(par, TransA, true, out.Data(), at.Data(), bb.Data(), sz.m, sz.k, sz.n, nil)
				}
			})
		}
	}
}
