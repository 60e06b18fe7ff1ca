package tensor

import (
	"math"
	"testing"

	"heteroswitch/internal/frand"
)

// The backend contract (backend.go): Gemm ignores the backend, and the flag
// surface accepts only the two backends.

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

// TestSerialBackendBitIdentical: Gemm runs the oracle kernels under both
// the serial and the int8 backend (int8 only reroutes calls that carry a
// weight handle), so every form — each Trans, overwrite and accumulate,
// plain and fused — is bit-identical to Gemm(1, …) plus a separate epilogue
// pass on the int8 microkernel's tail shapes and deep reductions.
func TestSerialBackendBitIdentical(t *testing.T) {
	checkGemmBitIdentical(t, 93, packedShapes, packedBudgets, NoTrans, TransA, TransB)
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

// FuzzParseBackend: hostile backend names must error, never panic; every
// accepted backend is one of the two known backends and round-trips through
// its String spelling.
func FuzzParseBackend(f *testing.F) {
	for _, in := range []string{"", "serial", "int8", "auto", "packed", "INT8", "int8\x00"} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		b, err := ParseBackend(in)
		if err != nil {
			return
		}
		if b != BackendSerial && b != BackendInt8 {
			t.Fatalf("ParseBackend(%q) accepted unknown backend %d", in, b)
		}
		if back, err := ParseBackend(b.String()); err != nil || back != b {
			t.Fatalf("ParseBackend(%q) = %v does not round-trip: %v, %v", in, b, back, err)
		}
	})
}
