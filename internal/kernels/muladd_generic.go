//go:build !amd64

package kernels

// hostPath is the generic loop off amd64: mulAdd runs mulAddGo alone.
var hostPath = pathGeneric

// mulAddSIMD computes no rows off amd64.
func mulAddSIMD(c, a, b []float32, rows, n int, alpha float32) int { return 0 }
