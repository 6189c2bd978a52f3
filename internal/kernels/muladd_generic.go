//go:build !amd64

package kernels

// useAVX2 is false off amd64: mulAdd runs the generic loop alone.
var useAVX2 = false

// mulAddSIMD computes no rows off amd64.
func mulAddSIMD(c, a, b []float32, rows, n int, alpha float32) int { return 0 }
