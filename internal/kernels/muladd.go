package kernels

// kernelPath names the micro-kernel mulAdd hands a tile's 4-row blocks to.
type kernelPath int

const (
	// pathGeneric leaves every row to the Go loop, mulAddGo.
	pathGeneric kernelPath = iota
	// pathAVX2 runs the 4 x 16 YMM block, mulAdd4x16.
	pathAVX2
	// pathAVX512 runs the 4 x 64 ZMM block, mulAdd4x64 (with a 4 x 32
	// strip), and hands a last 16-column strip to mulAdd4x16.
	pathAVX512
)

// blockPath is the dispatch: the path mulAddSIMD takes for the 4-row blocks
// of an n-column tile. A path runs only where its narrowest strip fits.
func blockPath(n int) kernelPath {
	switch {
	case hostPath >= pathAVX512 && n >= 32:
		return pathAVX512
	case hostPath >= pathAVX2 && n >= 16:
		return pathAVX2
	}
	return pathGeneric
}
