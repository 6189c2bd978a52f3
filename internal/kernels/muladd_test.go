package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func (p kernelPath) String() string {
	return [...]string{"generic", "avx2", "avx512"}[p]
}

// withPath runs f with mulAdd's dispatch capped at path.
func withPath(path kernelPath, f func()) {
	saved := hostPath
	hostPath = path
	defer func() { hostPath = saved }()
	f()
}

// requireAVX2 skips a test of the SIMD paths on a host that cannot run
// them: comparing the generic loop with itself would pass and prove nothing.
func requireAVX2(tb testing.TB) {
	tb.Helper()
	if hostPath < pathAVX2 {
		tb.Skip("no AVX2 micro-kernel on this host")
	}
}

// requireAVX512 skips a test of the 512-bit path on a host that cannot run
// it.
func requireAVX512(tb testing.TB) {
	tb.Helper()
	if hostPath < pathAVX512 {
		tb.Skip("no AVX-512 micro-kernel on this host")
	}
}

// simdPaths are the micro-kernel paths this host runs, narrowest first.
func simdPaths() []kernelPath {
	var paths []kernelPath
	for p := pathAVX2; p <= hostPath; p++ {
		paths = append(paths, p)
	}
	return paths
}

// mulAddAllPaths runs mulAdd over the same c, a and b on every SIMD path
// the host runs and on the generic loop and fails unless every element
// agrees bit for bit, two NaNs counting as equal whatever their payloads.
func mulAddAllPaths(t *testing.T, what string, c, a, b []float32, rows, n int, alpha float32) {
	t.Helper()
	generic := append([]float32(nil), c...)
	withPath(pathGeneric, func() { mulAdd(generic, a, b, rows, n, alpha) })
	for _, path := range simdPaths() {
		simd := append([]float32(nil), c...)
		withPath(path, func() { mulAdd(simd, a, b, rows, n, alpha) })
		for i := range generic {
			g, s := generic[i], simd[i]
			bothNaN := math.IsNaN(float64(g)) && math.IsNaN(float64(s))
			if math.Float32bits(g) != math.Float32bits(s) && !bothNaN {
				t.Fatalf("%s: c[%d][%d] = %v (%#x) on the %v path, %v (%#x) on the generic loop",
					what, i/n, i%n, s, math.Float32bits(s), path, g, math.Float32bits(g))
			}
		}
	}
}

// specials are the values a vector unit might treat differently from the
// scalar one: signed zeros, the smallest and largest subnormals, infinities
// and a NaN.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(1),
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x007fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// offsetFloats returns n random floats, with one special in roughly every
// sixteen, starting off floats into a fresh buffer, so across off = 0..15
// the slice starts at every 4-byte offset from a 64-byte boundary.
func offsetFloats(rng *rand.Rand, n, off int) []float32 {
	v := make([]float32, off+n)[off:]
	for i := range v {
		if rng.Intn(16) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// stripEdge reports whether n is within one of a multiple of 16, 32 or 64:
// the edges of the 16-, 32- and 64-column strips (and of the k blocks and
// panels, multiples of all three).
func stripEdge(n int) bool {
	for _, w := range []int{16, 32, 64} {
		if j := n % w; j <= 1 || j == w-1 {
			return true
		}
	}
	return false
}

// TestMulAddPathsAgree is the differential test of the AVX2 and AVX-512
// micro-kernels against the generic loop: every n from 1 to 300 (strips of
// each width with every column remainder, k blocks and panels with their
// edges) and the strip edges of three n past 300 whose last panel holds two,
// three and eight 64-column strips, 1 to 9 rows (4-row blocks plus every row
// remainder; all nine at a strip edge, two elsewhere), alpha 1 and Alpha,
// inputs off 64-byte alignment and sprinkled with zeros, subnormals and
// infinities.
func TestMulAddPathsAgree(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(1))
	every := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	ns := make([]int, 0, 309)
	for n := 1; n <= 300; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 383, 384, 385, 447, 448, 449, 767, 768, 769)
	for _, n := range ns {
		b := offsetFloats(rng, n*n, (n+3)%16)
		rowsList := []int{1 + n%9, 1 + (n+4)%9}
		if stripEdge(n) {
			rowsList = every
		}
		for _, rows := range rowsList {
			for _, alpha := range []float32{1, Alpha} {
				off := (n + rows) % 16
				a := offsetFloats(rng, rows*n, off)
				c := offsetFloats(rng, rows*n, (off+5)%16)
				mulAddAllPaths(t, fmt.Sprintf("rows=%d n=%d alpha=%v off=%d", rows, n, alpha, off), c, a, b, rows, n, alpha)
			}
		}
	}
}

// FuzzMulAdd drives every path the host runs over a fuzzed shape and fuzzed float bits:
// raw is read as little-endian float32 bit patterns, cycled to fill c, a
// and b.
func FuzzMulAdd(f *testing.F) {
	bits := func(vs ...float32) []byte {
		out := make([]byte, 0, 4*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		}
		return out
	}
	f.Add(uint8(4), uint16(16), false, uint8(0), bits(1, 2, 3))
	f.Add(uint8(5), uint16(17), true, uint8(3), bits(specials...))
	f.Add(uint8(8), uint16(129), true, uint8(1), bits(1e-38, -1e-38, 3e38, 0.1, -7))
	f.Add(uint8(9), uint16(257), false, uint8(7), bits(float32(math.Inf(1)), 0, 1.5))
	f.Fuzz(func(t *testing.T, rows8 uint8, n16 uint16, scaled bool, off8 uint8, raw []byte) {
		requireAVX2(t)
		rows, n, off := 1+int(rows8)%9, 1+int(n16)%300, int(off8)%16
		if len(raw) < 4 {
			raw = append(raw, 0, 0, 0, 0)
		}
		next := 0
		fill := func(count, off int) []float32 {
			v := make([]float32, off+count)[off:]
			for i := range v {
				if next+4 > len(raw) {
					next = 0
				}
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[next:]))
				next += 4
			}
			return v
		}
		alpha := float32(1)
		if scaled {
			alpha = Alpha
		}
		a, b, c := fill(rows*n, off), fill(n*n, (off+1)%16), fill(rows*n, (off+2)%16)
		mulAddAllPaths(t, fmt.Sprintf("rows=%d n=%d alpha=%v off=%d", rows, n, alpha, off), c, a, b, rows, n, alpha)
	})
}
