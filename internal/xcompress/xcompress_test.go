package xcompress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// decodeFrame decodes wire through the one decoder into a buffer of the
// length the test already knows.
func decodeFrame(wire []byte, n int) ([]byte, error) {
	out := make([]byte, n)
	return out, DecodeInto(wire, out)
}

func TestRoundTripSmallStaysRaw(t *testing.T) {
	c := Codec{}
	in := []byte("hello ompcloud")
	wire, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if IsCompressed(wire) {
		t.Fatal("payload under MinSize must stay raw")
	}
	out, err := decodeFrame(wire, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripLargeCompressible(t *testing.T) {
	c := Codec{MinSize: 1024}
	in := bytes.Repeat([]byte{0, 0, 0, 7}, 64*1024) // very compressible
	wire, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCompressed(wire) {
		t.Fatal("large compressible payload should be gzipped")
	}
	if len(wire) >= len(in)/4 {
		t.Fatalf("poor compression: %d of %d", len(wire), len(in))
	}
	out, err := decodeFrame(wire, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("round trip mismatch")
	}
}

func TestIncompressibleFallsBackToRaw(t *testing.T) {
	c := Codec{MinSize: 16}
	rng := rand.New(rand.NewSource(1))
	in := make([]byte, 4096)
	rng.Read(in)
	wire, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) > len(in)+1 {
		t.Fatalf("wire form must never exceed raw+1: %d > %d", len(wire), len(in)+1)
	}
	out, err := decodeFrame(wire, len(in))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in, out) {
		t.Fatal("round trip mismatch")
	}
}

func TestDisabledCodec(t *testing.T) {
	c := Codec{MinSize: -1}
	if c.Enabled() {
		t.Fatal("negative MinSize should disable compression")
	}
	in := bytes.Repeat([]byte{1}, 1<<20)
	wire, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if IsCompressed(wire) {
		t.Fatal("disabled codec compressed anyway")
	}
}

func TestDecodeErrors(t *testing.T) {
	dst := make([]byte, 2)
	if err := DecodeInto(nil, dst); err == nil {
		t.Fatal("empty payload should error")
	}
	if err := DecodeInto([]byte{99, 1, 2}, dst); err == nil {
		t.Fatal("unknown tag should error")
	}
	if err := DecodeInto([]byte{tagGzip, 1, 2, 3}, dst); err == nil {
		t.Fatal("corrupt gzip should error")
	}
	if err := DecodeInto([]byte{TagChunked, '{', '}'}, dst); err == nil {
		t.Fatal("a chunked manifest is not a frame and should error")
	}
}

// Property: DecodeInto(Encode(x)) == x for arbitrary payloads and thresholds.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte, minSize uint16) bool {
		c := Codec{MinSize: int(minSize)}
		wire, err := c.Encode(data)
		if err != nil {
			return false
		}
		out, err := decodeFrame(wire, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureSparseVsDense(t *testing.T) {
	c := Codec{}
	sparse := make([]byte, 1<<20) // zeros: maximally compressible
	dense := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(dense)

	ps, err := c.Measure(sparse)
	if err != nil {
		t.Fatal(err)
	}
	pd, err := c.Measure(dense)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Ratio >= pd.Ratio {
		t.Fatalf("sparse ratio %.3f should beat dense ratio %.3f", ps.Ratio, pd.Ratio)
	}
	if ps.Ratio > 0.05 {
		t.Fatalf("all-zero sample should compress below 5%%, got %.3f", ps.Ratio)
	}
	if pd.Ratio < 0.9 {
		t.Fatalf("random sample should be near-incompressible, got %.3f", pd.Ratio)
	}
	if ps.CompressBytesPS <= 0 || ps.DecompressBytesP <= 0 {
		t.Fatal("throughputs must be positive")
	}
}

func TestMeasureEmptySample(t *testing.T) {
	if _, err := (Codec{}).Measure(nil); err == nil {
		t.Fatal("empty sample should error")
	}
}

func TestProbePredictions(t *testing.T) {
	p := Probe{Ratio: 0.5, CompressBytesPS: 1e9, DecompressBytesP: 2e9}
	if got := p.CompressedSize(1000); got != 500 {
		t.Fatalf("CompressedSize = %d", got)
	}
	if got := p.CompressedSize(0); got != 0 {
		t.Fatalf("CompressedSize(0) = %d", got)
	}
	if got := p.CompressedSize(1); got != 1 {
		t.Fatalf("CompressedSize should floor at 1 byte, got %d", got)
	}
	if p.CompressTime(1e9).Seconds() != 1.0 {
		t.Fatalf("CompressTime wrong: %v", p.CompressTime(1e9))
	}
	if p.DecompressTime(2e9).Seconds() != 1.0 {
		t.Fatalf("DecompressTime wrong: %v", p.DecompressTime(2e9))
	}
	zero := Probe{}
	if zero.CompressTime(100) != 0 || zero.DecompressTime(100) != 0 {
		t.Fatal("zero-throughput probe should predict 0")
	}
}

// The deflate size probe counts exactly the frame body AppendEncode builds
// under a gzip verdict: the stream, or the payload where the stream would
// have been longer and the frame fell back to raw.
func TestDeflateSizeMatchesFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 100<<10)
	rng.Read(random)
	sparse := make([]byte, 300<<10)
	for i := 0; i < len(sparse); i += 97 {
		sparse[i] = byte(i)
	}
	for _, in := range [][]byte{nil, []byte("x"), random, sparse, bytes.Repeat([]byte("ompcloud "), 5000)} {
		frame, err := Codec{}.AppendEncode(nil, in, VerdictGzip)
		if err != nil {
			t.Fatal(err)
		}
		got, err := deflateSize(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(frame) - 1; got != want {
			t.Fatalf("%d-byte payload: deflateSize %d, frame body %d", len(in), got, want)
		}
	}
}
