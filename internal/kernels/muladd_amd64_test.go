package kernels

import "testing"

// TestBlocksTakeTheWidestPath pins the dispatch to what CPUID says, read
// afresh: on an AVX-512 host every 4-row block of a tile 32 columns wide or
// more — every one with a 64-column strip, and the daemon's 96-column tiles
// — goes to the 512-bit micro-kernel; on an AVX2 host every block 16
// columns wide goes to the AVX2 one. blockPath is the function mulAddSIMD
// dispatches through, so a dispatch forced to a narrower path fails here.
func TestBlocksTakeTheWidestPath(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 micro-kernel on this host")
	}
	for n := 1; n <= 2048; n++ {
		want := pathGeneric
		switch {
		case hasAVX512() && n >= 32:
			want = pathAVX512
		case n >= 16:
			want = pathAVX2
		}
		if got := blockPath(n); got != want {
			t.Fatalf("n=%d: 4-row blocks take the %v path, want %v", n, got, want)
		}
	}
}
