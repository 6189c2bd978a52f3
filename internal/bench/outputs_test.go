package bench

import (
	"fmt"

	"ompcloud/internal/kernels"
)

// chaosCores keeps the bit-identity tests' cluster small so every kernel
// still splits into several tiles at test dimensions.
const chaosCores = 8

// snapshotOutputs deep-copies a workload's live output buffers before the
// next run overwrites them.
func snapshotOutputs(w *kernels.Workload) [][]float32 {
	outs := w.Outputs()
	cp := make([][]float32, len(outs))
	for i, o := range outs {
		cp[i] = append([]float32(nil), o...)
	}
	return cp
}

// compareOutputs checks two output sets bit for bit.
func compareOutputs(a, b [][]float32) error {
	if len(a) != len(b) {
		return fmt.Errorf("output count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Errorf("output %d length differs: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Errorf("output %d diverges at %d: clean %v, chaos %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}
