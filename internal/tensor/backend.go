package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Kernel backends & numerics tiers --------------------------------------------
//
// The matmul entry points are split into two numerics tiers:
//
//   - The ORACLE tier: Gemm, the one float matmul entry point (every
//     transpose form, overwrite or accumulate, with an optional fused row
//     epilogue). It runs the serial/parallel register-tiled kernels with a
//     strict per-target ascending-k accumulation order, ignores the backend,
//     and is bit-exact at every intra-op budget. The tol-0 training and aggregation reproducibility contracts
//     stand on them, and so does the frozen path's float forward.
//
//   - The TOLERANCE tier: the weight-stationary fused entry points the
//     frozen inference path compiles to (MatMulWBSlicesPEp,
//     MatMulWASlicesPEp, weights.go). Under BackendInt8 they run the
//     integer microkernel (int8.go) against the int8 panels and
//     per-output-channel scales a PackedWeights handle quantized once per
//     weight version at nn.Freeze time. Its documented bound is Int8Tol,
//     looser than the float forward's 1e-5, so int8 is strictly opt-in via
//     SetBackend/-kernel-backend/the environment variable. Under
//     BackendSerial, and whenever the handle lacks its int8 form, they run
//     Gemm on the caller's float weights.

// Backend selects the kernel implementation behind the weight-stationary
// fused matmul entry points.
type Backend uint8

const (
	// BackendSerial runs the oracle kernels everywhere — bit-identical at
	// every budget. The zero value and the default.
	BackendSerial Backend = iota
	// BackendInt8 runs the weight-stationary fused matmuls (the frozen
	// path's conv/dense kernels, which carry a PackedWeights handle) on the
	// int8-quantized integer microkernel: weights quantized per output
	// channel once per version, activations per call, int32 accumulation,
	// float32 dequantizing epilogue. Fused calls WITHOUT a weight handle
	// (direct Gemm calls) stay on the oracle kernels.
	BackendInt8
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case BackendSerial:
		return "serial"
	case BackendInt8:
		return "int8"
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// ParseBackend maps the -kernel-backend flag values onto a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "serial":
		return BackendSerial, nil
	case "int8":
		return BackendInt8, nil
	}
	return BackendSerial, fmt.Errorf("tensor: unknown kernel backend %q (want serial or int8)", s)
}

// activeBackend is the process-wide selection; the zero value is
// BackendSerial. Reads sit on the matmul hot path, so it is a lock-free
// atomic.
var activeBackend atomic.Uint32

// SetBackend selects the kernel backend for every subsequent
// tolerance-tier matmul. Safe for concurrent use; typically set once at
// startup from the -kernel-backend flag.
func SetBackend(b Backend) { activeBackend.Store(uint32(b)) }

// ActiveBackend returns the current process-wide backend selection.
func ActiveBackend() Backend { return Backend(activeBackend.Load()) }

// initBackendFromEnv applies an environment-variable backend selection and
// returns the error for an unparseable value WITHOUT changing the active
// backend — the init hook below turns that error into a hard process exit.
// Split out (with the lookup injected) so tests can pin the reject path
// without forking a subprocess.
func initBackendFromEnv(value string) error {
	if value == "" {
		return nil
	}
	b, err := ParseBackend(value)
	if err != nil {
		return fmt.Errorf("HETEROSWITCH_KERNEL_BACKEND: %v", err)
	}
	SetBackend(b)
	return nil
}

// init honors the HETEROSWITCH_KERNEL_BACKEND environment variable so test
// lanes (the CI backend matrix) can force a backend across whole packages
// without threading flags through every harness. An unknown value is a
// configuration error, not a preference: silently falling back to serial would
// make a CI lane test the wrong backend while reporting green, so the
// process fails loudly at startup instead.
func init() {
	if err := initBackendFromEnv(os.Getenv("HETEROSWITCH_KERNEL_BACKEND")); err != nil {
		fmt.Fprintln(os.Stderr, "tensor:", err)
		os.Exit(2)
	}
}
