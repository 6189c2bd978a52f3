package kernels

// useAVX2 reports whether mulAdd hands its 4-row blocks to the AVX2
// micro-kernel. It is set once, from CPUID, and read-only outside tests,
// which flip it to run the generic loop on the same host.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX.OSXSAVE, CPUID.1:ECX.AVX,
// XCR0 bits 1 and 2, CPUID.(7,0):EBX.AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMM != xmmYMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mulAdd4x16 adds to the 4 x width block at c, rows ldn floats apart, the
// products of the kb packed coefficients p (p[4*k+r] = alpha*a[r][k]) and
// the kb x width block at b, rows ldn floats apart: for each 16-column strip
// it holds the 4 x 16 sums in registers across all kb steps, and at step k
// adds p[4*k+r] * b[k][j] to c[r][j] with one VMULPS and one VADDPS — two
// roundings, as in serial.go. width is a positive multiple of 16 and kb is
// positive.
//
//go:noescape
func mulAdd4x16(c, p, b *float32, ldn, kb, width int)

// The micro-kernel walks the tile in kBlock x panel blocks of b, k blocks
// outermost: a 128 x 256 block of b (128 KiB) stays in L2 while every 4-row
// block of the tile passes over it, and one mulAdd4x16 call — one row block,
// one k block, one panel — is at most 131 072 multiply-adds, so it never
// holds off a GC stop-the-world for long.
const (
	kBlock = 128
	panel  = 256
)

// mulAddSIMD runs the AVX2 micro-kernel over the first rows&^3 rows of the
// tile and reports how many rows it computed; mulAdd finishes the rest with
// the generic loop. Columns past the last full 16-column strip take the
// scalar loop of serial.go, after the vector columns. Every c[i][j] receives
// its n products one at a time in ascending k — k blocks in order, steps in
// order within a block — so the result is bit-identical to serial.go.
func mulAddSIMD(c, a, b []float32, rows, n int, alpha float32) int {
	rows &^= 3
	if !useAVX2 || rows == 0 || n < 16 {
		return 0
	}
	nv := n &^ 15
	var p [4 * kBlock]float32
	for k0 := 0; k0 < n; k0 += kBlock {
		kb := min(kBlock, n-k0)
		for j0 := 0; j0 < nv; j0 += panel {
			w := min(panel, nv-j0)
			bs := b[k0*n+j0 : (k0+kb-1)*n+j0+w]
			for i := 0; i < rows; i += 4 {
				for k := range kb {
					for r := range 4 {
						p[4*k+r] = alpha * a[(i+r)*n+k0+k]
					}
				}
				cs := c[i*n+j0 : (i+3)*n+j0+w]
				mulAdd4x16(&cs[0], &p[0], &bs[0], n, kb, w)
			}
		}
	}
	for i := range rows {
		ci, ai := c[i*n+nv:(i+1)*n], a[i*n:(i+1)*n]
		for k, v := range ai {
			axpy(ci, alpha*v, b[k*n+nv:(k+1)*n])
		}
	}
	return rows
}
