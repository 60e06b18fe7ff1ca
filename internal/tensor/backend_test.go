package tensor

import (
	"fmt"
	"math"
	"testing"

	"heteroswitch/internal/frand"
)

// The backend contract (backend.go): the float fused entries run the oracle
// kernels under every backend, bit-identical to the unfused kernels plus a
// separate epilogue pass at every budget, and the flag surface accepts only
// the two backends.

// forceBackend pins the process-wide backend for one test and restores the
// previous selection afterwards.
func forceBackend(t *testing.T, b Backend) {
	t.Helper()
	prev := ActiveBackend()
	SetBackend(b)
	t.Cleanup(func() { SetBackend(prev) })
}

// packedShapes stresses the int8 microkernel tails (rows not multiples of
// packMR, columns not multiples of the panel width) and deep reductions.
var packedShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{5, 9, 6},
	{8, 64, 128},
	{13, 17, 19},
	{16, 768, 256}, // MLP-shaped
	{31, 64, 67},
	{47, 300, 66}, // ragged everything
	{48, 48, 256}, // ConvNet-shaped
	{65, 33, 129},
}

var packedBudgets = []int{1, 2, 3, 4, 8}

func rowArgmax(row []float32) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// fanInScaled builds a k×n "weight" operand with Kaiming-style 1/sqrt(k)
// scaling, so matmul outputs are O(1) like real network activations and an
// absolute tolerance is the meaningful unit (raw unit-variance B would grow
// sums to ~sqrt(k)).
func fanInScaled(r *frand.RNG, k, n int) *Tensor {
	return Randn(r, 1/math.Sqrt(float64(k)), k, n)
}

// TestSerialBackendBitIdentical: the fused entries — plain and accumulating
// — are bit-identical to the oracle kernels plus a separate epilogue pass,
// at every budget and under every backend (int8 only reroutes calls that
// carry a weight handle).
func TestSerialBackendBitIdentical(t *testing.T) {
	r := frand.New(93)
	for _, be := range []Backend{BackendSerial, BackendInt8} {
		forceBackend(t, be)
		for _, sz := range packedShapes {
			a := Randn(r, 1, sz.m, sz.k)
			b := Randn(r, 1, sz.k, sz.n)
			base := Randn(r, 1, sz.m, sz.n)
			bias := Randn(r, 1, sz.m)
			ep := &testEpilogue{bias: bias.Data()}
			want := make([]float32, sz.m*sz.n)
			MatMulSlices(want, a.Data(), b.Data(), sz.m, sz.k, sz.n)
			wantAcc := append([]float32(nil), base.Data()...)
			matmulAcc(wantAcc, a.Data(), b.Data(), sz.m, sz.k, sz.n)
			for i := 0; i < sz.m; i++ {
				ep.Apply(want[i*sz.n:(i+1)*sz.n], i)
				ep.Apply(wantAcc[i*sz.n:(i+1)*sz.n], i)
			}
			for _, par := range packedBudgets {
				name := fmt.Sprintf("backend=%s par=%d %dx%dx%d", be, par, sz.m, sz.k, sz.n)
				got := make([]float32, sz.m*sz.n)
				MatMulSlicesPEp(par, got, a.Data(), b.Data(), sz.m, sz.k, sz.n, ep)
				exactEqual(t, "MatMulSlicesPEp "+name, got, want)
				copy(got, base.Data())
				MatMulAccSlicesPEp(par, got, a.Data(), b.Data(), sz.m, sz.k, sz.n, ep)
				exactEqual(t, "MatMulAccSlicesPEp "+name, got, wantAcc)
			}
		}
	}
}

// TestBackendParse pins the flag surface: the two backends round-trip, and
// the removed "auto" and "packed" values are unknown like any other.
func TestBackendParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
	}{{"", BackendSerial}, {"serial", BackendSerial}, {"int8", BackendInt8}} {
		got, err := ParseBackend(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("Backend %v String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	var zero Backend
	if zero != BackendSerial {
		t.Fatalf("zero Backend = %v, want serial", zero)
	}
	for _, in := range []string{"simd", "auto", "packed"} {
		if _, err := ParseBackend(in); err == nil {
			t.Fatalf("ParseBackend(%s) did not error", in)
		}
	}
}
