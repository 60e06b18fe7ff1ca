package tensor

import (
	"fmt"
	"sync"

	"heteroswitch/internal/parallel"
)

// matmul kernel block size, chosen to keep a block of B rows of both
// operands inside L1 cache for float32 data.
const mmBlock = 64

// All kernels below preserve a strict per-accumulation-target operation
// order: for any output element, partial products are added in ascending
// inner-dimension order, exactly as the pre-tiled scalar kernels did. The
// register tiling (4-wide j unrolling) only changes WHICH targets are in
// flight at once, never the order of adds into one target, so results are
// bit-identical to the straightforward loops and independent of tiling.
//
// Gemm additionally splits the output rows (the M dimension, or the
// transposed-A result's row dimension) into parallel.Chunks-fixed contiguous
// blocks, one goroutine per block. Every output element is still computed
// entirely by one goroutine running the serial inner loops, so the
// per-target operation order — and therefore the result — is bit-identical
// to the serial kernels at every budget. Budget 1 (or a matrix too small
// for its grain) takes the serial code path byte-for-byte.

// Trans selects which operand of Gemm is stored transposed.
type Trans uint8

const (
	NoTrans Trans = iota // a[m,k] @ b[k,n]
	TransA               // a stored [k,m]: aᵀ @ b
	TransB               // b stored [n,k]: a @ bᵀ
)

// Gemm computes out[m,n] = op(a) @ op(b), or out += op(a) @ op(b) when acc
// is set, on raw row-major slices, with the output rows computed in
// parallel under the intra-op budget par (1 ⇒ the serial kernel inline).
// t names the stored-transposed operand (see Trans). ep, when non-nil, runs
// on each completed output row inside the chunk that computed it. It is the
// one float matmul entry point: dense and conv forward/backward, and the
// frozen path's fused calls, all lower to it.
func Gemm(par int, t Trans, acc bool, out, a, b []float32, m, k, n int, ep RowEpilogue) {
	if len(out) < m*n || len(a) < m*k || len(b) < k*n {
		panic(fmt.Sprintf("tensor: Gemm %dx%dx%d with out %d, a %d, b %d elements",
			m, k, n, len(out), len(a), len(b)))
	}
	task := mmTask{t: t, acc: acc, out: out, a: a, b: b, m: m, k: k, n: n, ep: ep}
	if par <= 1 {
		task.Run(0, 0, m)
		return
	}
	p := mmTaskPool.Get().(*mmTask)
	*p = task
	parallel.Run(par, m, mmGrain(k, n), p)
	*p = mmTask{} // drop slice references before pooling
	mmTaskPool.Put(p)
}

// matmulAcc is the blocked, register-tiled kernel: out[m,n] += a[m,k] @
// b[k,n], all row-major flat slices. Within each k-block, four output
// columns are accumulated in registers across the whole block, quartering
// the load/store traffic on out relative to a scalar j sweep.
func matmulAcc(out, a, b []float32, m, k, n int) {
	for i0 := 0; i0 < m; i0 += mmBlock {
		iMax := min(i0+mmBlock, m)
		for k0 := 0; k0 < k; k0 += mmBlock {
			kMax := min(k0+mmBlock, k)
			for i := i0; i < iMax; i++ {
				arow := a[i*k+k0 : i*k+kMax]
				orow := out[i*n : i*n+n]
				j := 0
				for ; j+4 <= n; j += 4 {
					c0, c1, c2, c3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
					bi := k0*n + j
					for _, av := range arow {
						if av != 0 {
							bq := b[bi : bi+4 : bi+4]
							c0 += av * bq[0]
							c1 += av * bq[1]
							c2 += av * bq[2]
							c3 += av * bq[3]
						}
						bi += n
					}
					orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
				}
				for ; j < n; j++ {
					c := orow[j]
					bi := k0*n + j
					for _, av := range arow {
						if av != 0 {
							c += av * b[bi]
						}
						bi += n
					}
					orow[j] = c
				}
			}
		}
	}
}

// matMulTransB computes out[m,n] (+)= a[m,k] @ b[n,k]ᵀ. Each output element
// is a dot product of two contiguous rows; four dot products run at once so
// every load of a's row feeds four accumulators.
func matMulTransB(out, a, b []float32, m, k, n int, acc bool) {
	for i := 0; i < m; i++ {
		arow := a[i*k : i*k+k]
		orow := out[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : j*k+k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for x, av := range arow {
				s0 += av * b0[x]
				s1 += av * b1[x]
				s2 += av * b2[x]
				s3 += av * b3[x]
			}
			if acc {
				orow[j] += s0
				orow[j+1] += s1
				orow[j+2] += s2
				orow[j+3] += s3
			} else {
				orow[j], orow[j+1], orow[j+2], orow[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < n; j++ {
			brow := b[j*k : j*k+k]
			var s float32
			for x, av := range arow {
				s += av * brow[x]
			}
			if acc {
				orow[j] += s
			} else {
				orow[j] = s
			}
		}
	}
}

// matMulTransAAccRange computes out[m,n] += a[k,m]ᵀ @ b[k,n] for output
// rows [i0, i1) — the row-parallel building block. out is still indexed
// with full row stride n from row 0.
func matMulTransAAccRange(out, a, b []float32, k, m, n, i0, i1 int) {
	// out[i,j] += Σ_x a[x,i]·b[x,j], with x ascending per target and four
	// output columns held in registers across each x block. Blocking over x
	// keeps the strided a column (stride m) and the touched b rows resident
	// while the j sweep re-reads them; per-target add order stays x
	// ascending across blocks, so results match the scalar loop exactly.
	for x0 := 0; x0 < k; x0 += mmBlock {
		xMax := min(x0+mmBlock, k)
		for i := i0; i < i1; i++ {
			orow := out[i*n : i*n+n]
			j := 0
			for ; j+4 <= n; j += 4 {
				c0, c1, c2, c3 := orow[j], orow[j+1], orow[j+2], orow[j+3]
				ai, bi := x0*m+i, x0*n+j
				for x := x0; x < xMax; x++ {
					if av := a[ai]; av != 0 {
						bq := b[bi : bi+4 : bi+4]
						c0 += av * bq[0]
						c1 += av * bq[1]
						c2 += av * bq[2]
						c3 += av * bq[3]
					}
					ai += m
					bi += n
				}
				orow[j], orow[j+1], orow[j+2], orow[j+3] = c0, c1, c2, c3
			}
			for ; j < n; j++ {
				c := orow[j]
				ai, bi := x0*m+i, x0*n+j
				for x := x0; x < xMax; x++ {
					if av := a[ai]; av != 0 {
						c += av * b[bi]
					}
					ai += m
					bi += n
				}
				orow[j] = c
			}
		}
	}
}

// mmGrain converts one output row's work (k·n multiply-adds) into the
// minimum rows per parallel chunk.
func mmGrain(k, n int) int { return parallel.GrainFor(k * n) }

// RowEpilogue post-processes completed output rows of a matmul in place —
// bias adds and activation functions fused into the kernel call. Gemm
// applies it INSIDE each parallel chunk, right after the chunk's rows
// are computed, so the epilogue runs on cache-warm data and the output is
// never re-traversed by a separate layer pass. Apply receives the global row
// index r and the row slice out[r*n : (r+1)*n].
//
// Apply must be safe for concurrent calls on distinct rows (chunks run in
// parallel): implementations read shared state but mutate only the row.
// Because the epilogue is row-local, fused results are bit-identical at
// every budget, exactly like the unfused kernels.
type RowEpilogue interface {
	Apply(row []float32, r int)
}

// mmTask is one Gemm call as a parallel.Runner over output rows; the
// parallel path recycles it through mmTaskPool so dispatch stays free of
// steady-state allocation.
type mmTask struct {
	t         Trans
	acc       bool
	out, a, b []float32
	m, k, n   int
	ep        RowEpilogue
}

var mmTaskPool = sync.Pool{New: func() any { return new(mmTask) }}

// Run implements parallel.Runner on a row range of the output.
func (t *mmTask) Run(_, lo, hi int) {
	o := t.out[lo*t.n : hi*t.n]
	if !t.acc && t.t != TransB {
		clear(o)
	}
	switch t.t {
	case NoTrans:
		matmulAcc(o, t.a[lo*t.k:hi*t.k], t.b, hi-lo, t.k, t.n)
	case TransB:
		matMulTransB(o, t.a[lo*t.k:hi*t.k], t.b, hi-lo, t.k, t.n, t.acc)
	case TransA:
		matMulTransAAccRange(t.out, t.a, t.b, t.k, t.m, t.n, lo, hi)
	}
	if t.ep != nil {
		applyEpilogue(t.ep, t.out, t.n, lo, hi)
	}
}

// applyEpilogue runs ep over output rows [lo, hi).
func applyEpilogue(ep RowEpilogue, out []float32, n, lo, hi int) {
	for r := lo; r < hi; r++ {
		ep.Apply(out[r*n:(r+1)*n], r)
	}
}
