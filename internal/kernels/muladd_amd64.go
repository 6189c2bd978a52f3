package kernels

// hostPath is the widest micro-kernel this CPU runs, read once from CPUID.
// Only tests lower it, to run a narrower path on the same host.
var hostPath = detectPath()

func detectPath() kernelPath {
	switch {
	case hasAVX512():
		return pathAVX512
	case hasAVX2():
		return pathAVX2
	}
	return pathGeneric
}

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

// hasAVX512 reports whether the CPU executes AVX-512F and the OS saves the
// opmask and all 32 ZMM registers across context switches
// (CPUID.(7,0):EBX.AVX512F, XCR0 bits 5-7), on top of AVX2, which the
// 512-bit path's last 16-column strip runs on.
func hasAVX512() bool {
	if !hasAVX2() {
		return false
	}
	const opmaskZMM = 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&opmaskZMM != opmaskZMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0
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

// mulAdd4x64 is mulAdd4x16 on ZMM registers: it holds a 4 x 64 block's sums
// in sixteen registers across all kb steps, and a last 32 columns, if width
// leaves them, in eight. width is a positive multiple of 32 and kb is
// positive.
//
//go:noescape
func mulAdd4x64(c, p, b *float32, ldn, kb, width int)

// The micro-kernels walk the tile in kBlock x panel blocks of b: k blocks
// outermost, then 4-row blocks, then panels. A 4-row block's coefficients
// are packed once per k block and serve every panel, and the k block of b
// (512 KiB at n = 1024, 768 KiB at 1536) stays in L2 while every row block
// passes over it. One micro-kernel call — one row block, one k block, one
// panel — is at most 131 072 multiply-adds, so it never holds off a GC
// stop-the-world for long.
const (
	kBlock = 128
	panel  = 256
)

// mulAddSIMD runs the micro-kernel blockPath picks over the first rows&^3
// rows of the tile and reports how many rows it computed; mulAdd finishes
// the rest with the generic loop. On the 512-bit path the columns up to the
// last full 32-column strip take mulAdd4x64 and a 16-column strip after
// them mulAdd4x16; on the AVX2 path every full 16-column strip takes
// mulAdd4x16. Columns past the last 16-column strip take the scalar loop of
// serial.go, after the vector columns. Every c[i][j] receives its n
// products one at a time in ascending k — k blocks in order, steps in order
// within a block — so the result is bit-identical to serial.go.
func mulAddSIMD(c, a, b []float32, rows, n int, alpha float32) int {
	rows &^= 3
	path := blockPath(n)
	if path == pathGeneric || rows == 0 {
		return 0
	}
	nv, wide := n&^15, 0
	if path == pathAVX512 {
		wide = n &^ 31
	}
	var p [4 * kBlock]float32
	for k0 := 0; k0 < n; k0 += kBlock {
		kb := min(kBlock, n-k0)
		for i := 0; i < rows; i += 4 {
			for k := range kb {
				for r := range 4 {
					p[4*k+r] = alpha * a[(i+r)*n+k0+k]
				}
			}
			for j0 := 0; j0 < nv; j0 += panel {
				w := min(panel, nv-j0)
				bs := b[k0*n+j0 : (k0+kb-1)*n+j0+w]
				cs := c[i*n+j0 : (i+3)*n+j0+w]
				if w512 := min(w, wide-j0); w512 > 0 {
					mulAdd4x64(&cs[0], &p[0], &bs[0], n, kb, w512)
					if w512 == w {
						continue
					}
					bs, cs, w = bs[w512:], cs[w512:], w-w512
				}
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
