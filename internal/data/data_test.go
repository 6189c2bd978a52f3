package data

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestFloatsBytesRoundTrip(t *testing.T) {
	in := []float32{0, 1, -1.5, math.MaxFloat32, float32(math.Inf(1)), 3.14159}
	out := Floats(Bytes(in))
	if len(out) != len(in) {
		t.Fatalf("len %d != %d", len(out), len(in))
	}
	for i := range in {
		if math.Float32bits(in[i]) != math.Float32bits(out[i]) {
			t.Fatalf("element %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestFloatsRoundTripProperty(t *testing.T) {
	f := func(in []float32) bool {
		out := Floats(Bytes(in))
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if math.Float32bits(in[i]) != math.Float32bits(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatsBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-multiple-of-4 buffer")
		}
	}()
	Floats(make([]byte, 6))
}

func TestPutGetFloat(t *testing.T) {
	b := make([]byte, 12)
	PutFloat(b, 1, 42.5)
	if got := GetFloat(b, 1); got != 42.5 {
		t.Fatalf("GetFloat = %v", got)
	}
	if got := GetFloat(b, 0); got != 0 {
		t.Fatalf("untouched slot = %v", got)
	}
}

func TestKindParsing(t *testing.T) {
	if k, err := ParseKind("dense"); err != nil || k != Dense {
		t.Fatalf("ParseKind(dense) = %v, %v", k, err)
	}
	if k, err := ParseKind("sparse"); err != nil || k != Sparse {
		t.Fatalf("ParseKind(sparse) = %v, %v", k, err)
	}
	if _, err := ParseKind("wat"); err == nil {
		t.Fatal("bad kind should error")
	}
	if Dense.String() != "dense" || Sparse.String() != "sparse" {
		t.Fatal("String() wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatalf("unknown kind String = %q", Kind(9).String())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(64, 64, Dense, 7)
	b := Generate(64, 64, Dense, 7)
	c := Generate(64, 64, Dense, 8)
	if d, _ := MaxAbsDiff(a.V, b.V); d != 0 {
		t.Fatal("same seed must generate identical matrices")
	}
	if d, _ := MaxAbsDiff(a.V, c.V); d == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateSparseIsSparse(t *testing.T) {
	m := Generate(128, 128, Sparse, 3)
	nnz := 0
	for _, v := range m.V {
		if v != 0 {
			nnz++
		}
	}
	frac := float64(nnz) / float64(len(m.V))
	if frac > SparseDensity*1.2 || frac == 0 {
		t.Fatalf("sparse nonzero fraction %.4f out of range", frac)
	}
}

func TestGenerateDenseRange(t *testing.T) {
	m := Generate(32, 32, Dense, 1)
	for _, v := range m.V {
		if v < -1 || v >= 1 {
			t.Fatalf("dense value %v out of [-1,1)", v)
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(2, 3, 9)
	if m.At(2, 3) != 9 {
		t.Fatal("At/Set mismatch")
	}
	if m.SizeBytes() != 48 {
		t.Fatalf("SizeBytes = %d", m.SizeBytes())
	}
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone must not share storage")
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestGenerateUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(2, 2, Kind(42), 1)
}

func TestSizeOnlyMatricesHoldNoElements(t *testing.T) {
	for _, m := range []*Matrix{
		Generate(1<<14, 1<<14, SizeOnly, 1),
		Zeros(3, 5, SizeOnly),
		Zeros(3, 5, SizeOnly).Clone(),
	} {
		if !m.SizeOnly() || m.V != nil || m.Rows*m.Cols == 0 {
			t.Fatalf("size-only matrix %dx%d holds %d elements", m.Rows, m.Cols, len(m.V))
		}
	}
	if z := Zeros(3, 5, Dense); z.SizeOnly() || len(z.V) != 15 {
		t.Fatal("a dense Zeros should allocate its elements")
	}
	if NewMatrix(0, 0).SizeOnly() || NewMatrix(2, 2).Clone().SizeOnly() {
		t.Fatal("a held matrix is not size-only")
	}
	if _, err := ParseKind(SizeOnly.String()); err == nil {
		t.Fatal("size-only is not an input kind a user picks")
	}
}

func TestMaxAbsDiffAndAlmostEqual(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2.5, 3}
	d, err := MaxAbsDiff(a, b)
	if err != nil || d != 0.5 {
		t.Fatalf("MaxAbsDiff = %v, %v", d, err)
	}
	if !AlmostEqual(a, b, 0.5) {
		t.Fatal("should be equal within 0.5")
	}
	if AlmostEqual(a, b, 0.4) {
		t.Fatal("should differ beyond 0.4")
	}
	if _, err := MaxAbsDiff(a, b[:2]); err == nil {
		t.Fatal("length mismatch should error")
	}
	if AlmostEqual(a, b[:2], 1) {
		t.Fatal("length mismatch should not be equal")
	}
}

// skewed returns a copy of b that starts one byte past a 4-byte boundary.
func skewed(b []byte) []byte {
	buf := make([]byte, len(b)+2*FloatSize)
	off := 1 + (FloatSize-int(uintptr(unsafe.Pointer(&buf[0]))%FloatSize))%FloatSize
	w := buf[off : off+len(b)]
	copy(w, b)
	return w
}

func TestFloatViewSharesAlignedMemory(t *testing.T) {
	in := []float32{0, 1, -1.5, math.MaxFloat32, float32(math.Inf(1)), 3.14159}
	b := Bytes(in)
	f, shared := FloatView(b)
	if !shared {
		t.Skip("big-endian host: FloatView can only copy")
	}
	for i := range in {
		if math.Float32bits(f[i]) != math.Float32bits(in[i]) {
			t.Fatalf("element %d: view reads %v, want %v", i, f[i], in[i])
		}
	}
	f[2] = 42.5
	if got := GetFloat(b, 2); got != 42.5 {
		t.Fatalf("write through the view did not reach the bytes: %v", got)
	}
	PutFloat(b, 3, -8)
	if f[3] != -8 {
		t.Fatalf("write to the bytes is not seen through the view: %v", f[3])
	}
	// A window into the middle of a buffer is still a view.
	if w, shared := FloatView(b[2*FloatSize : 4*FloatSize]); !shared || len(w) != 2 || w[0] != 42.5 {
		t.Fatalf("sub-window view = %v, shared %v", w, shared)
	}
}

func TestFloatViewCopiesMisalignedBuffer(t *testing.T) {
	in := []float32{1, 2, 3, 4, 5}
	b := skewed(Bytes(in))
	f, shared := FloatView(b)
	if shared {
		t.Fatal("a buffer off the 4-byte grid cannot be viewed as float32s")
	}
	for i := range in {
		if f[i] != in[i] {
			t.Fatalf("element %d: copy reads %v, want %v", i, f[i], in[i])
		}
	}
	f[0] = 9
	if GetFloat(b, 0) != 1 {
		t.Fatal("the fallback copy must not share memory")
	}
	copy(b, Bytes(f)) // the documented write-back
	if GetFloat(b, 0) != 9 {
		t.Fatal("write-back lost")
	}
}

func TestByteViewSharesMemory(t *testing.T) {
	f := []float32{1, -2, 3.5}
	b, shared := ByteView(f)
	if !bytes.Equal(b, Bytes(f)) {
		t.Fatalf("ByteView = %x, wire layout is %x", b, Bytes(f))
	}
	if !shared {
		t.Skip("big-endian host: ByteView can only copy")
	}
	PutFloat(b, 1, 7)
	if f[1] != 7 {
		t.Fatalf("write to the byte view did not reach the floats: %v", f[1])
	}
	if back, shared := FloatView(b); !shared || &back[0] != &f[0] {
		t.Fatal("FloatView(ByteView(f)) is not f")
	}
}

func TestViewsOfNothing(t *testing.T) {
	if f, _ := FloatView(nil); len(f) != 0 {
		t.Fatalf("FloatView(nil) = %v", f)
	}
	if b, _ := ByteView(nil); len(b) != 0 {
		t.Fatalf("ByteView(nil) = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-multiple-of-4 buffer")
		}
	}()
	FloatView(make([]byte, 6))
}
