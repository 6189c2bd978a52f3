// Package data provides the binary buffer representation shared by the host
// program, the storage service and the Spark workers. The paper moves every
// offloaded variable as a flat binary file of 32-bit floats ("All data used
// in the benchmarks consisted of 32-bit floating point numbers"); this
// package gives typed views over those byte buffers plus the seeded dense
// and sparse matrix generators used by the evaluation.
package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"unsafe"
)

// FloatSize is the byte width of one matrix element.
const FloatSize = 4

// Floats decodes a byte buffer into a freshly allocated float32 slice.
func Floats(b []byte) []float32 {
	if len(b)%FloatSize != 0 {
		panic(fmt.Sprintf("data: buffer of %d bytes is not a whole number of float32s", len(b)))
	}
	out := make([]float32, len(b)/FloatSize)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*FloatSize:]))
	}
	return out
}

// hostLittleEndian reports whether a float32 in memory already has the
// wire/file layout, the precondition for viewing instead of converting.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// FloatView returns the float32 values held in b and reports whether the
// result shares b's memory. It does when the host is little-endian and b
// starts on a 4-byte boundary: reads see b's bytes and writes land in them,
// with no copy in either direction. Otherwise f is a decoded copy, and a
// caller that wrote to it stores it back with copy(b, Bytes(f)). These two
// functions are the only place the data path uses unsafe.
func FloatView(b []byte) (f []float32, shared bool) {
	p := unsafe.SliceData(b)
	if len(b) == 0 || len(b)%FloatSize != 0 || !hostLittleEndian || uintptr(unsafe.Pointer(p))%FloatSize != 0 {
		return Floats(b), false // which panics on a ragged length
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(p)), len(b)/FloatSize), true
}

// ByteView is FloatView's inverse: the wire/file bytes of f, sharing f's
// memory on a little-endian host. Otherwise b is a serialized copy, and a
// caller whose b was written to loads it back with copy(f, Floats(b)).
func ByteView(f []float32) (b []byte, shared bool) {
	if len(f) == 0 || !hostLittleEndian {
		return Bytes(f), false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), len(f)*FloatSize), true
}

// Bytes serializes float32 values into the wire/file layout.
func Bytes(f []float32) []byte {
	out := make([]byte, len(f)*FloatSize)
	for i, v := range f {
		binary.LittleEndian.PutUint32(out[i*FloatSize:], math.Float32bits(v))
	}
	return out
}

// PutFloat writes one element in place into an existing byte buffer.
func PutFloat(b []byte, idx int, v float32) {
	binary.LittleEndian.PutUint32(b[idx*FloatSize:], math.Float32bits(v))
}

// GetFloat reads one element from a byte buffer.
func GetFloat(b []byte, idx int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[idx*FloatSize:]))
}

// Kind selects the evaluation's two input flavours. Sparse matrices compress
// "faster with better compression rate" (paper §IV) and are the lever behind
// the Fig. 5 sparse/dense contrast. SizeOnly matrices have a shape and no
// elements: model mode prepares benchmarks with them to lower paper-scale
// programs without holding ~1 GB matrices.
type Kind int

const (
	Dense Kind = iota
	Sparse
	SizeOnly
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Sparse:
		return "sparse"
	case SizeOnly:
		return "size-only"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts the CLI/config spelling of a kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "dense":
		return Dense, nil
	case "sparse":
		return Sparse, nil
	default:
		return 0, fmt.Errorf("data: unknown kind %q (want dense|sparse)", s)
	}
}

// SparseDensity is the fraction of nonzero elements in generated sparse
// matrices. 2% nonzeros gives gzip ratios comparable to the paper's sparse
// inputs while keeping the numerics non-trivial.
const SparseDensity = 0.02

// Matrix is a dense row-major float32 matrix in its linearized form, exactly
// as the annotated benchmarks index it (A[i*N+k]). A size-only matrix has
// Rows and Cols and a nil V.
type Matrix struct {
	Rows, Cols int
	V          []float32
}

// NewMatrix allocates a zeroed rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("data: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, V: make([]float32, rows*cols)}
}

// Zeros allocates a workload's outputs and intermediates: NewMatrix, or a
// size-only matrix when kind is SizeOnly.
func Zeros(rows, cols int, kind Kind) *Matrix {
	if kind == SizeOnly {
		return &Matrix{Rows: rows, Cols: cols}
	}
	return NewMatrix(rows, cols)
}

// SizeOnly reports whether m has a shape and no elements.
func (m *Matrix) SizeOnly() bool { return m.V == nil && m.Rows*m.Cols > 0 }

// Generate fills a matrix with seeded pseudo-random content of the given
// kind. Dense: uniform values in [-1, 1). Sparse: mostly zeros with
// SparseDensity nonzeros. SizeOnly: no elements at all. Deterministic for a
// (seed, kind, shape) triple.
func Generate(rows, cols int, kind Kind, seed int64) *Matrix {
	if kind == SizeOnly {
		return Zeros(rows, cols, kind)
	}
	m := NewMatrix(rows, cols)
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case Dense:
		for i := range m.V {
			m.V[i] = rng.Float32()*2 - 1
		}
	case Sparse:
		nnz := int(float64(len(m.V)) * SparseDensity)
		for j := 0; j < nnz; j++ {
			m.V[rng.Intn(len(m.V))] = rng.Float32()*2 - 1
		}
	default:
		panic(fmt.Sprintf("data: unknown kind %v", kind))
	}
	return m
}

// At reads element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.V[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.V[i*m.Cols+j] = v }

// Bytes serializes the matrix payload (shape travels out of band, as in the
// paper where the map clause length is known to both sides).
func (m *Matrix) Bytes() []byte { return Bytes(m.V) }

// SizeBytes reports the serialized payload size.
func (m *Matrix) SizeBytes() int64 { return int64(len(m.V)) * FloatSize }

// Clone deep-copies the matrix; a size-only matrix clones to another.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, V: slices.Clone(m.V)}
}

// MaxAbsDiff reports the largest absolute element difference between two
// equally sized float32 slices, used to verify offloaded results against the
// serial reference.
func MaxAbsDiff(a, b []float32) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("data: length mismatch %d vs %d", len(a), len(b))
	}
	var max float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > max {
			max = d
		}
	}
	return max, nil
}

// AlmostEqual reports whether two slices agree within tol element-wise.
// Offloading reorders float additions only where the benchmark semantics
// allow it, so the verification tolerance is tight but nonzero.
func AlmostEqual(a, b []float32, tol float64) bool {
	d, err := MaxAbsDiff(a, b)
	return err == nil && d <= tol
}
