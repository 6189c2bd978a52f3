// Package kernels implements the paper's eight evaluation benchmarks —
// SYRK, SYR2K, COVAR, GEMM, 2MM and 3MM from the Polyhedral Benchmark suite
// plus Mat-mul and Collinear-list from MgBench — as OpenMP-accelerator-model
// workloads over 32-bit floats, "previously adapted for the OpenMP
// accelerator model" exactly as §IV describes. Every benchmark carries its
// serial reference for verification and its operation-count formula, and
// every loop body its count per iteration, for the performance model.
package kernels

import (
	"fmt"
	"math"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
)

// Alpha and Beta are the scalar coefficients of the Polybench kernels.
const (
	Alpha float32 = 1.5
	Beta  float32 = 1.2
)

// CollinearEps is the cross-product threshold under which three points
// count as collinear in the MgBench Collinear-list benchmark.
const CollinearEps = 1e-4

// The loop bodies below are the fat-binary "native kernels" the Spark
// workers invoke (the JNI_region functions of the paper's Fig. 2). Each
// computes iterations [lo, hi) of the annotated outer loop; partitioned
// buffers arrive as tile-local windows, unpartitioned ones whole. Like
// compiled C, a body computes on the bytes it is handed: it reads its inputs
// and writes its outputs through data.FloatView. An out window arrives holding
// whatever the caller's buffer held, and a tofrom window may be the very
// memory of the same-index input, so a body overwrites every element of its
// window and reads cin[i] before it writes c[i].
func init() {
	// mm: plain matrix multiplication C = A x B over n x n linearized
	// matrices. ins: [A rows lo..hi, B whole]; outs: [C rows lo..hi].
	// Shared by MgBench Mat-mul and as the building block of 2MM/3MM.
	register("mm", perRow(2, 0), func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a, _ := data.FloatView(in[0])
		b, _ := data.FloatView(in[1])
		c, shared := data.FloatView(out[0])
		clear(c)
		mulAdd(c, a, b, int(hi-lo), n, 1)
		store(out[0], c, shared)
		return nil
	})

	// mm.bcast: the same multiplication with A broadcast whole instead of
	// row-partitioned; the body indexes A with the global iteration index.
	// Used by the no-partitioning ablation (Listing 1 without Listing 2).
	register("mm.bcast", perRow(2, 0), func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a, _ := data.FloatView(in[0]) // whole A
		b, _ := data.FloatView(in[1])
		c, shared := data.FloatView(out[0])
		clear(c)
		mulAdd(c, a[int(lo)*n:int(hi)*n], b, int(hi-lo), n, 1)
		store(out[0], c, shared)
		return nil
	})

	// gemm: C = Alpha*A*B + Beta*C. ins: [A rows, B whole, C rows];
	// outs: [C rows].
	register("gemm", perRow(2, 2), func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a, _ := data.FloatView(in[0])
		b, _ := data.FloatView(in[1])
		cin, _ := data.FloatView(in[2])
		c, shared := data.FloatView(out[0])
		for i, v := range cin[:len(c)] {
			c[i] = Beta * v
		}
		mulAdd(c, a, b, int(hi-lo), n, Alpha)
		store(out[0], c, shared)
		return nil
	})

	// syrk: C = Alpha*A*A^T + Beta*C. Row i of C needs every row of A, so
	// A is broadcast whole. ins: [A whole, C rows]; outs: [C rows];
	// scalars: [n].
	register("syrk", perRow(2, 2), func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a, _ := data.FloatView(in[0])
		cin, _ := data.FloatView(in[1])
		c, shared := data.FloatView(out[0])
		rows := int(hi - lo)
		for i := 0; i < rows; i++ {
			gi := int(lo) + i
			arow := a[gi*n : (gi+1)*n]
			for j := 0; j < n; j++ {
				var acc float32
				brow := a[j*n : (j+1)*n]
				for k := 0; k < n; k++ {
					acc += arow[k] * brow[k]
				}
				c[i*n+j] = Beta*cin[i*n+j] + Alpha*acc
			}
		}
		store(out[0], c, shared)
		return nil
	})

	// syr2k: C = Alpha*A*B^T + Alpha*B*A^T + Beta*C. ins: [A whole,
	// B whole, C rows]; outs: [C rows]; scalars: [n].
	register("syr2k", perRow(4, 2), func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		a, _ := data.FloatView(in[0])
		b, _ := data.FloatView(in[1])
		cin, _ := data.FloatView(in[2])
		c, shared := data.FloatView(out[0])
		rows := int(hi - lo)
		for i := 0; i < rows; i++ {
			gi := int(lo) + i
			ai := a[gi*n : (gi+1)*n]
			bi := b[gi*n : (gi+1)*n]
			for j := 0; j < n; j++ {
				aj := a[j*n : (j+1)*n]
				bj := b[j*n : (j+1)*n]
				var acc float32
				for k := 0; k < n; k++ {
					acc += ai[k]*bj[k] + bi[k]*aj[k]
				}
				c[i*n+j] = Beta*cin[i*n+j] + Alpha*acc
			}
		}
		store(out[0], c, shared)
		return nil
	})

	// covar.mean: column means of the m x n data matrix, parallel over
	// columns j. ins: [data whole]; outs: [mean entries lo..hi];
	// scalars: [n, m]. A column costs 2m operations.
	meanOps := func(s []int64) float64 { return 2 * float64(s[1]) }
	register("covar.mean", meanOps, func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		m := int(scalars[1])
		d, _ := data.FloatView(in[0])
		mean, shared := data.FloatView(out[0])
		cols := int(hi - lo)
		for j := 0; j < cols; j++ {
			gj := int(lo) + j
			var s float32
			for i := 0; i < m; i++ {
				s += d[i*n+gj]
			}
			mean[j] = s / float32(m)
		}
		store(out[0], mean, shared)
		return nil
	})

	// covar.sym: sym[j1][j2] = sum_i (d[i][j1]-mean[j1])*(d[i][j2]-
	// mean[j2]), parallel over rows j1 of the symmetric output. ins:
	// [data whole, mean whole]; outs: [sym rows lo..hi]; scalars: [n, m].
	// A row costs 3nm operations.
	symOps := func(s []int64) float64 { return 3 * float64(s[0]) * float64(s[1]) }
	register("covar.sym", symOps, func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		m := int(scalars[1])
		d, _ := data.FloatView(in[0])
		mean, _ := data.FloatView(in[1])
		sym, shared := data.FloatView(out[0])
		rows := int(hi - lo)
		for j1 := 0; j1 < rows; j1++ {
			gj1 := int(lo) + j1
			m1 := mean[gj1]
			for j2 := 0; j2 < n; j2++ {
				m2 := mean[j2]
				var acc float32
				for i := 0; i < m; i++ {
					acc += (d[i*n+gj1] - m1) * (d[i*n+j2] - m2)
				}
				sym[j1*n+j2] = acc / float32(m-1)
			}
		}
		store(out[0], sym, shared)
		return nil
	})

	// collinear: for every point i, counts the pairs (j, k), j < k, both
	// distinct from i, that are collinear with it; every unordered triple
	// is therefore counted three times, once per member. The full j/k
	// sweep keeps the per-iteration cost uniform in i, so equal-width
	// tiles balance — matching the near-ideal scaling the paper reports
	// for this benchmark. ins: [pts whole, interleaved x/y]; outs:
	// [count, one float32, reduction(+)]; scalars: [npoints].
	register("collinear", perRow(2, 0), func(lo, hi int64, scalars []int64, in, out [][]byte) error {
		n := int(scalars[0])
		pts, _ := data.FloatView(in[0])
		var count float32
		for gi := int(lo); gi < int(hi); gi++ {
			xi, yi := pts[2*gi], pts[2*gi+1]
			for j := 0; j < n; j++ {
				if j == gi {
					continue
				}
				dxj, dyj := pts[2*j]-xi, pts[2*j+1]-yi
				for k := j + 1; k < n; k++ {
					if k == gi {
						continue
					}
					cross := dxj*(pts[2*k+1]-yi) - dyj*(pts[2*k]-xi)
					if float32(math.Abs(float64(cross))) < CollinearEps {
						count++
					}
				}
			}
		}
		data.PutFloat(out[0], 0, count)
		return nil
	})
}

// iterOps holds each loop body's operation count for one iteration, given
// the region's scalars: the compute the performance model charges a loop.
var iterOps = map[string]func(scalars []int64) float64{}

// register links a loop body into the fat binary and declares, next to it,
// its operation count per iteration.
func register(name string, ops func(scalars []int64) float64, body fatbin.LoopBody) {
	fatbin.Register(name, body)
	iterOps[name] = ops
}

// perRow is the per-iteration count of a body that sweeps one row of an
// n x n problem: a*n^2 + b*n operations, n being scalars[0].
func perRow(a, b float64) func(scalars []int64) float64 {
	return func(s []int64) float64 { n := float64(s[0]); return a*n*n + b*n }
}

// IterOps reports the operation count of one iteration of the named loop
// body under the given scalars, in the units of Benchmark.Ops: a benchmark's
// lowered loops sum to its Ops.
func IterOps(kernel string, scalars []int64) (float64, error) {
	ops, ok := iterOps[kernel]
	if !ok {
		return 0, fmt.Errorf("kernels: no operation count for loop body %q", kernel)
	}
	return ops(scalars), nil
}

// store completes a body's writes to the out window w: nothing is left to do
// when c is a view of w, and the decoded copy FloatView handed out for a
// misaligned window (or on a big-endian host) is encoded back.
func store(w []byte, c []float32, shared bool) {
	if !shared {
		copy(w, data.Bytes(c))
	}
}

// mulAdd is the micro-kernel mm, mm.bcast and gemm share: for the rows x n
// tiles c and a and the n x n matrix b, c[i][j] += (alpha*a[i][k]) * b[k][j].
// On an AVX2 host mulAddSIMD computes the 4-row blocks (muladd_amd64.go);
// the rows it leaves, and every row elsewhere, take mulAddGo. Both give every
// c[i][j] its n products one at a time in ascending k, each product rounded
// before it is added, so either path is bit-identical to serial.go.
func mulAdd(c, a, b []float32, rows, n int, alpha float32) {
	i := mulAddSIMD(c, a, b, rows, n, alpha)
	mulAddGo(c[i*n:], a[i*n:], b, rows-i, n, alpha)
}

// mulAddGo is the portable loop: it sweeps j once per block of 2 rows x 4 k,
// holding the eight scaled a values and the two running sums in registers,
// so b's rows are loaded once per two output rows and c once per four k
// instead of once per k. Every c[i][j] still receives its n products one at
// a time in ascending k — the order of the plain i-k-j loop in serial.go —
// so the result is bit-identical to it; alpha = 1 multiplies exactly.
func mulAddGo(c, a, b []float32, rows, n int, alpha float32) {
	i := 0
	for ; i+2 <= rows; i += 2 {
		a0, a1 := a[i*n:(i+1)*n], a[(i+1)*n:(i+2)*n]
		c0, c1 := c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
		k := 0
		for ; k+4 <= n; k += 4 {
			p0, p1, p2, p3 := alpha*a0[k], alpha*a0[k+1], alpha*a0[k+2], alpha*a0[k+3]
			q0, q1, q2, q3 := alpha*a1[k], alpha*a1[k+1], alpha*a1[k+2], alpha*a1[k+3]
			b0, b1, b2, b3 := b[k*n:(k+1)*n], b[(k+1)*n:(k+2)*n], b[(k+2)*n:(k+3)*n], b[(k+3)*n:(k+4)*n]
			for j := range c0 {
				v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
				s := c0[j]
				s += p0 * v0
				s += p1 * v1
				s += p2 * v2
				s += p3 * v3
				c0[j] = s
				t := c1[j]
				t += q0 * v0
				t += q1 * v1
				t += q2 * v2
				t += q3 * v3
				c1[j] = t
			}
		}
		for ; k < n; k++ {
			axpy(c0, alpha*a0[k], b[k*n:(k+1)*n])
			axpy(c1, alpha*a1[k], b[k*n:(k+1)*n])
		}
	}
	if i < rows {
		ci, ai := c[i*n:(i+1)*n], a[i*n:(i+1)*n]
		for k := 0; k < n; k++ {
			axpy(ci, alpha*ai[k], b[k*n:(k+1)*n])
		}
	}
}

// axpy is the unblocked remainder step: row += s * brow.
func axpy(row []float32, s float32, brow []float32) {
	for j := range row {
		row[j] += s * brow[j]
	}
}
