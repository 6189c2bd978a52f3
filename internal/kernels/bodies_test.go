package kernels

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ompcloud/internal/data"
	"ompcloud/internal/fatbin"
)

// bodyCase describes one registered loop body as the runtime would drive it:
// how to cut its inputs for a tile, which input a tofrom output shares its
// memory with on the host, and the serial reference of the whole output.
type bodyCase struct {
	kernel  string
	scalars []int64
	ins     func(lo, hi int) [][]byte // fresh windows for tile [lo, hi)
	tofrom  int                       // index of the input a tofrom output may alias; -1: a pure map(from:)
	perIter int                       // output floats per iteration; 0: a one-float sum reduction
	want    []float32
}

// window copies rows [lo, hi) of a row-major matrix with n columns into a
// fresh, aligned byte window.
func window(v []float32, n, lo, hi int) []byte { return data.Bytes(v[lo*n : hi*n]) }

// bodyCases builds every registered body over an n-sized problem.
func bodyCases(n int) []bodyCase {
	a := data.Generate(n, n, data.Dense, 1).V
	b := data.Generate(n, n, data.Dense, 2).V
	c := data.Generate(n, n, data.Dense, 3).V
	m := n + 3 // covar's row count, deliberately not n
	d := data.Generate(m, n, data.Dense, 4).V
	mean, sym := serialCovar(n, m, d)
	pts := data.Generate(1, 2*n, data.Sparse, 5).V
	for i, v := range pts {
		pts[i] = float32(int(v*8)) / 8
	}
	nn := []int64{int64(n)}
	return []bodyCase{
		{"mm", nn, func(lo, hi int) [][]byte {
			return [][]byte{window(a, n, lo, hi), data.Bytes(b)}
		}, -1, n, serialMM(n, a, b)},
		{"mm.bcast", nn, func(lo, hi int) [][]byte {
			return [][]byte{data.Bytes(a), data.Bytes(b)}
		}, -1, n, serialMM(n, a, b)},
		{"gemm", nn, func(lo, hi int) [][]byte {
			return [][]byte{window(a, n, lo, hi), data.Bytes(b), window(c, n, lo, hi)}
		}, 2, n, serialGEMM(n, a, b, c)},
		{"syrk", nn, func(lo, hi int) [][]byte {
			return [][]byte{data.Bytes(a), window(c, n, lo, hi)}
		}, 1, n, serialSYRK(n, a, c)},
		{"syr2k", nn, func(lo, hi int) [][]byte {
			return [][]byte{data.Bytes(a), data.Bytes(b), window(c, n, lo, hi)}
		}, 2, n, serialSYR2K(n, a, b, c)},
		{"covar.mean", []int64{int64(n), int64(m)}, func(lo, hi int) [][]byte {
			return [][]byte{data.Bytes(d)}
		}, -1, 1, mean},
		{"covar.sym", []int64{int64(n), int64(m)}, func(lo, hi int) [][]byte {
			return [][]byte{data.Bytes(d), data.Bytes(mean)}
		}, -1, n, sym},
		{"collinear", nn, func(lo, hi int) [][]byte {
			return [][]byte{data.Bytes(pts)}
		}, -1, 0, []float32{serialCollinear(n, pts)}},
	}
}

// misaligned copies b to an address that is not a multiple of four, so
// data.FloatView has to fall back to a decoded copy.
func misaligned(t *testing.T, b []byte) []byte {
	t.Helper()
	buf := make([]byte, len(b)+data.FloatSize)
	for off := 1; off <= data.FloatSize; off++ {
		w := buf[off : off+len(b) : off+len(b)]
		if _, shared := data.FloatView(w); !shared {
			copy(w, b)
			return w
		}
	}
	t.Fatal("no misaligned offset found: is the host big-endian?")
	return nil
}

// runTiles drives tc's body over the tiles cut at the given boundaries and
// returns the assembled output. Partitioned out windows arrive with every
// byte set to stale (the bytes a host caller's buffer, or a recycled driver
// buffer, may hold: 0xFF makes every float32 a NaN); with alias set, a tofrom
// window is the input window itself. place rewrites every window before the
// call (identity, or misaligned).
func runTiles(t *testing.T, tc bodyCase, cuts []int, alias bool, stale byte, place func([]byte) []byte) []float32 {
	t.Helper()
	k, err := fatbin.Lookup(tc.kernel)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float32, len(tc.want))
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		in := tc.ins(lo, hi)
		for j := range in {
			in[j] = place(in[j])
		}
		var out []byte
		switch {
		case tc.perIter == 0:
			out = place(make([]byte, data.FloatSize)) // the sum's identity
		case alias && tc.tofrom >= 0:
			out = in[tc.tofrom]
		default:
			out = place(bytes.Repeat([]byte{stale}, (hi-lo)*tc.perIter*data.FloatSize))
		}
		if err := k.Body(int64(lo), int64(hi), tc.scalars, in, [][]byte{out}); err != nil {
			t.Fatal(err)
		}
		if tc.perIter == 0 {
			got[0] += data.GetFloat(out, 0)
		} else {
			copy(got[lo*tc.perIter:hi*tc.perIter], data.Floats(out))
		}
	}
	return got
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), serial reference %v (%#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestBodiesOverwriteStaleOutputs pins the output-window contract of
// fatbin.LoopBody for bodies that write in place, which the cloud device's
// recycled driver buffers rely on: a partitioned window is not zeroed — it
// holds NaNs or any other stale bytes (0xA5) — and a tofrom window may be the
// input's own memory, and either way the result equals the serial reference
// bit for bit, on the AVX2 micro-kernel and on the generic mulAdd loop alike.
// A size large enough for the micro-kernel's 4-row blocks and 16-column
// strips runs beside a small ragged one.
func TestBodiesOverwriteStaleOutputs(t *testing.T) {
	const n = 13
	keep := func(b []byte) []byte { return b }
	cases := bodyCases(n)
	if len(cases) != len(fatbin.Default.Names()) {
		t.Fatalf("%d body cases for %d registered kernels", len(cases), len(fatbin.Default.Names()))
	}
	// The host's own path, NaN-filled windows, a small ragged size.
	for _, tc := range cases {
		for _, alias := range []bool{false, true} {
			if alias && tc.tofrom < 0 {
				continue
			}
			t.Run(fmt.Sprintf("%s/alias=%v", tc.kernel, alias), func(t *testing.T) {
				sameBits(t, tc.kernel, runTiles(t, tc, []int{0, 5, 6, n}, alias, 0xFF, keep), tc.want)
			})
		}
	}
	// Each path forced in turn, both stale patterns, and a size that fills
	// the micro-kernel's blocks and strips.
	for _, path := range []string{"simd", "generic"} {
		if path == "simd" && !useAVX2 {
			continue // the generic loop is the only path on this host
		}
		withAVX2(path == "simd", func() {
			for _, n := range []int{13, 37} {
				for _, tc := range bodyCases(n) {
					for _, stale := range []byte{0xFF, 0xA5} {
						for _, alias := range []bool{false, true} {
							if alias && tc.tofrom < 0 {
								continue
							}
							t.Run(fmt.Sprintf("%s/n=%d/%s/stale=%#x/alias=%v", path, n, tc.kernel, stale, alias), func(t *testing.T) {
								sameBits(t, tc.kernel, runTiles(t, tc, []int{0, 5, 6, 11, n}, alias, stale, keep), tc.want)
							})
						}
					}
				}
			}
		})
	}
}

// TestBlockedBodiesMatchSerialOnEveryShape walks the micro-kernel's block
// and remainder paths (odd row counts, n not a multiple of four) on aligned
// windows, then hands the same tiles over misaligned so every view is a
// decoded copy with a write-back — the only path a big-endian host has.
func TestBlockedBodiesMatchSerialOnEveryShape(t *testing.T) {
	keep := func(b []byte) []byte { return b }
	skew := func(b []byte) []byte { return misaligned(t, b) }
	for _, n := range []int{1, 3, 4, 5, 96, 130} {
		for _, tc := range bodyCases(n)[:3] { // mm, mm.bcast, gemm
			for _, rows := range []int{1, 2, 3, 7} {
				if rows > n {
					continue
				}
				cuts := []int{0, n - rows, n} // the last tile has exactly rows rows
				if rows == n {
					cuts = cuts[1:]
				}
				name := fmt.Sprintf("%s/n=%d/rows=%d", tc.kernel, n, rows)
				sameBits(t, name, runTiles(t, tc, cuts, false, 0xFF, keep), tc.want)
				sameBits(t, name+"/misaligned", runTiles(t, tc, cuts, false, 0xFF, skew), tc.want)
			}
		}
	}
	// The other bodies share the view helpers, not the micro-kernel: one
	// misaligned pass each, aliasing included.
	for _, tc := range bodyCases(13)[3:] {
		sameBits(t, tc.kernel+"/misaligned", runTiles(t, tc, []int{0, 6, 13}, tc.tofrom >= 0, 0xFF, skew), tc.want)
	}
}

// TestKernelBodiesAllocateNothing is the per-tile copy budget: on aligned
// windows a body reads and writes through views, so it allocates nothing —
// no decoded input, no scratch result, no encode.
func TestKernelBodiesAllocateNothing(t *testing.T) {
	const n, rows = 32, 4
	for _, tc := range bodyCases(n) {
		k, err := fatbin.Lookup(tc.kernel)
		if err != nil {
			t.Fatal(err)
		}
		in := tc.ins(0, rows)
		out := [][]byte{make([]byte, max(rows*tc.perIter, 1)*data.FloatSize)}
		allocs := testing.AllocsPerRun(10, func() {
			if err := k.Body(0, rows, tc.scalars, in, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per tile, want 0", tc.kernel, allocs)
		}
	}
}

// BenchmarkKernelTile times one tile of the two benchmark-sized loop bodies
// (gemm-dense: N=1536 in 96-row tiles; 3mm-env: N=1024 in 64-row tiles) on
// one core, on the AVX2 micro-kernel (simd; skipped on a host without AVX2)
// and on the generic loop, and reports its GFLOP/s next to B/op.
func BenchmarkKernelTile(b *testing.B) {
	for _, tc := range []struct {
		kernel  string
		n, rows int
	}{
		{"gemm", 1536, 96},
		{"mm", 1024, 64},
	} {
		k, err := fatbin.Lookup(tc.kernel)
		if err != nil {
			b.Fatal(err)
		}
		tile := func(seed int64) []byte { return data.Generate(tc.rows, tc.n, data.Dense, seed).Bytes() }
		in := [][]byte{tile(1), data.Generate(tc.n, tc.n, data.Dense, 2).Bytes(), tile(3)} // mm ignores C
		out := [][]byte{tile(4)}
		scalars := []int64{int64(tc.n)}
		for _, path := range []string{"simd", "generic"} {
			b.Run(fmt.Sprintf("%s-%dx%d/%s", tc.kernel, tc.n, tc.rows, path), func(b *testing.B) {
				if path == "simd" {
					requireAVX2(b)
				}
				withAVX2(path == "simd", func() {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := k.Body(0, int64(tc.rows), scalars, in, out); err != nil {
							b.Fatal(err)
						}
					}
				})
				flops := 2 * float64(tc.rows) * float64(tc.n) * float64(tc.n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
