package xcompress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// denseBytes fills a buffer with uniform random bytes (incompressible).
func denseBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// sparseBytes fills a buffer with mostly zeros plus scattered values
// (highly compressible).
func sparseBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/64; i++ {
		b[rng.Intn(n)] = byte(1 + rng.Intn(255))
	}
	return b
}

// sparseFloats fills n bytes with float32 words, density of them nonzero at
// random positions — data.Generate's sparse shape (density 0.02 there).
func sparseFloats(n int, density float64, seed int64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	words := n / 4
	for i := 0; i < int(float64(words)*density); i++ {
		binary.LittleEndian.PutUint32(b[4*rng.Intn(words):], math.Float32bits(rng.Float32()*2-1))
	}
	return b
}

// textBytes builds repetitive structured data with no zero bytes (deflate
// shrinks it ~20x, zero-run not at all).
func textBytes(n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("tile=42 worker=ompcloud-w03 state=running attempt=1\n")
	}
	return b.Bytes()[:n]
}

// wordsOf lays 32-bit words out as the wire does.
func wordsOf(ws ...uint32) []byte {
	b := make([]byte, 0, 4*len(ws))
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// zeroRunShapes are the payloads the zero-run frame's edges are made of.
func zeroRunShapes() map[string][]byte {
	negZero, nan := math.Float32bits(float32(math.Copysign(0, -1))), math.Float32bits(float32(math.NaN()))
	alternating := make([]byte, 64<<10)
	for i := 0; i < len(alternating); i += 8 {
		alternating[i] = 1 // nonzero word, zero word, ...: no run of two zeros
	}
	return map[string][]byte{
		"all-zero":      make([]byte, 1<<20),
		"no-zero":       bytes.Repeat([]byte{7}, 64<<10),
		"alternating":   alternating,
		"sparse-floats": sparseFloats(1<<20, 0.02, 7),
		"sparse-bytes":  sparseBytes(1<<20, 7),
		"unaligned":     append(make([]byte, 4096), 1, 2, 3),
		"zero-tail":     make([]byte, 4099),
		// −0.0 and NaN are not zero words: they must come back bit for bit.
		"neg-zero-nan":  append(wordsOf(0, 0, 0, negZero, 0, 0, nan, 0, 0, 0, 0, negZero), make([]byte, 512)...),
		"leading-lit":   append(wordsOf(9, 9, 0, 9), make([]byte, 4096)...),
		"trailing-lit":  append(make([]byte, 4096), wordsOf(9, 0, 9, 0)...),
		"one-zero-word": make([]byte, 4),
		"sub-word":      {0, 0, 0},
		"empty":         {},
	}
}

func TestZeroRunRoundTrip(t *testing.T) {
	shapes := zeroRunShapes()
	for name, in := range shapes {
		wire, err := Codec{}.AppendEncode(nil, in, VerdictZero)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(wire) > len(in)+1 {
			t.Fatalf("%s: wire %d bytes for %d raw", name, len(wire), len(in))
		}
		// Decode into a dirty window: the zeros must be written, not assumed.
		out := bytes.Repeat([]byte{0xAA}, len(in))
		if err := DecodeInto(wire, out); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
	// The shapes with runs to drop take the zero-run frame itself.
	for _, name := range []string{"all-zero", "sparse-floats", "sparse-bytes", "unaligned", "zero-tail", "neg-zero-nan", "leading-lit", "trailing-lit"} {
		wire, _ := Codec{}.AppendEncode(nil, shapes[name], VerdictZero)
		if wire[0] != tagZero {
			t.Errorf("%s: shipped under tag %d, want the zero-run frame", name, wire[0])
		}
	}
}

// TestZeroRunRoundTripProperty: every length around the word and chunk
// boundaries, and every byte-misaligned window a content-defined cut can hand
// the encoder, comes back exactly — and a frame decodes into no other length.
func TestZeroRunRoundTripProperty(t *testing.T) {
	base := sparseFloats(1<<20+16, 0.02, 11)
	check := func(in []byte) {
		t.Helper()
		wire, err := Codec{}.AppendEncode(nil, in, VerdictZero)
		if err != nil || len(wire) > len(in)+1 {
			t.Fatalf("%d bytes: frame of %d bytes, err %v", len(in), len(wire), err)
		}
		out := bytes.Repeat([]byte{0xAA}, len(in))
		if err := DecodeInto(wire, out); err != nil || !bytes.Equal(in, out) {
			t.Fatalf("%d bytes: round trip failed: %v", len(in), err)
		}
		if DecodeInto(wire, make([]byte, len(in)+1)) == nil || (len(in) > 0 && DecodeInto(wire, out[1:]) == nil) {
			t.Fatalf("%d bytes: frame decoded into a dst of another length", len(in))
		}
	}
	for n := 0; n <= 9; n++ {
		check(base[:n])          // zeros
		check(textBytes(n))      // no zeros
		check(base[4096+1:][:n]) // whatever a misaligned window holds
	}
	for n := 1<<20 - 3; n <= 1<<20+3; n++ {
		check(base[:n])
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 200; i++ {
		lo := rng.Intn(len(base) - 1)
		hi := lo + rng.Intn(min(len(base)-lo, 96<<10))
		check(base[lo:hi])
	}
}

// TestZeroRunBeatsDeflateOnSparse is the reason the codec exists: on
// data.Generate-style sparse float32 its frame is smaller than deflate's.
func TestZeroRunBeatsDeflateOnSparse(t *testing.T) {
	in := sparseFloats(1<<20, 0.02, 3)
	zero, err := Codec{}.AppendEncode(nil, in, VerdictZero)
	if err != nil {
		t.Fatal(err)
	}
	gz, err := Codec{}.AppendEncode(nil, in, VerdictGzip)
	if err != nil {
		t.Fatal(err)
	}
	if zero[0] != tagZero {
		t.Fatalf("sparse input should take the zero-run frame, got tag %d", zero[0])
	}
	if len(zero) > len(gz) || len(zero) > len(in)/25 {
		t.Fatalf("zero-run frame is %d bytes of %d raw; deflate's is %d", len(zero), len(in), len(gz))
	}
}

// TestZeroRunDeclinedPayloadShipsDeflate: a payload zero-run does not shrink
// below SkipRatio ships exactly what a deflate verdict ships — deflate's frame
// when deflate shrinks it, raw when nothing does.
func TestZeroRunDeclinedPayloadShipsDeflate(t *testing.T) {
	tenthZero := denseBytes(1<<20, 6)
	clear(tenthZero[:100<<10]) // zero-run would get 0.90, deflate gets under SkipRatio
	for name, tc := range map[string]struct {
		in  []byte
		tag byte
	}{
		"text":       {textBytes(1 << 20), tagGzip},
		"tenth-zero": {tenthZero, tagGzip},
		"dense":      {denseBytes(1<<20, 5), tagRaw},
		"tiny":       {[]byte{1, 2, 3, 4, 5, 6, 7, 8}, tagRaw},
	} {
		zero, err := Codec{}.AppendEncode(nil, tc.in, VerdictZero)
		if err != nil {
			t.Fatal(err)
		}
		gz, err := Codec{}.AppendEncode(nil, tc.in, VerdictGzip)
		if err != nil {
			t.Fatal(err)
		}
		if zero[0] != tc.tag || !bytes.Equal(zero, gz) {
			t.Errorf("%s: tag %d, %d bytes; the deflate verdict ships tag %d, %d bytes", name, zero[0], len(zero), gz[0], len(gz))
		}
	}
}

// hostileZeroFrames are frames for a 16-byte (or, the last two, 18-byte)
// window that a correct decoder must refuse.
func hostileZeroFrames() map[string][]byte {
	frame := func(n uint64, rest ...byte) []byte {
		return append(binary.AppendUvarint([]byte{tagZero}, n), rest...)
	}
	lit := wordsOf(1, 2, 3, 4)
	huge := binary.AppendUvarint(nil, 1<<62) // ×4 overflows an int64
	return map[string][]byte{
		"zero-run-overflows-window":   frame(16, 5, 0),
		"literals-overflow-window":    frame(16, append([]byte{3, 2}, lit[:8]...)...),
		"literal-count-past-body":     frame(16, append([]byte{0, 4}, lit[:8]...)...),
		"huge-zero-count":             frame(16, append(huge, 0)...),
		"huge-literal-count":          frame(16, append([]byte{0}, huge...)...),
		"uvarint-overflow":            frame(16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0),
		"declared-length-short":       frame(15, 4, 0),
		"declared-length-long":        frame(17, 4, 0),
		"empty-sequence":              frame(16, append([]byte{0, 0, 0, 4}, lit...)...),
		"trailing-byte":               frame(16, 4, 0, 0),
		"trailing-sequence":           frame(16, 4, 0, 1, 0),
		"truncated-header":            {tagZero},
		"truncated-header-uvarint":    {tagZero, 0x80},
		"truncated-zero-count":        frame(16),
		"truncated-literal-count":     frame(16, 2),
		"truncated-second-sequence":   frame(16, 2, 0),
		"missing-tail (18-byte dst)":  frame(18, 4, 0, 9),
		"oversize-tail (18-byte dst)": frame(18, 4, 0, 9, 9, 9),
		// The retired LZ77 codec's frame of the four bytes "abcd".
		"retired-tag-3": {3, 4, 0x40, 'a', 'b', 'c', 'd'},
	}
}

// TestZeroRunDecodeRejectsCorruption: hand-built hostile frames are refused,
// and bit flips, stomps and truncations of a valid frame either error out or
// (when they only touch literal bytes) fill the window — never panic or write
// outside it.
func TestZeroRunDecodeRejectsCorruption(t *testing.T) {
	for name, wire := range hostileZeroFrames() {
		for _, n := range []int{16, 18} {
			if err := DecodeInto(wire, make([]byte, n)); err == nil {
				t.Errorf("%s: decoded into %d bytes, want an error", name, n)
			}
		}
	}
	// A minimal valid frame, so the refusals above are not all one bug.
	if err := DecodeInto(append(binary.AppendUvarint([]byte{tagZero}, 18), 4, 0, 9, 9), make([]byte, 18)); err != nil {
		t.Fatalf("valid frame refused: %v", err)
	}

	in := sparseFloats(100_003, 0.05, 11)
	wire, err := Codec{}.AppendEncode(nil, in, VerdictZero)
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != tagZero {
		t.Fatal("expected a zero-run frame")
	}
	const guard = 32
	rng := rand.New(rand.NewSource(11))
	arena := make([]byte, guard+len(in)+guard)
	out := arena[guard : guard+len(in) : guard+len(in)]
	for i := 0; i < 2000; i++ {
		corrupt := append([]byte(nil), wire...)
		switch i % 3 {
		case 0: // single bit flip
			p := 1 + rng.Intn(len(corrupt)-1)
			corrupt[p] ^= 1 << rng.Intn(8)
		case 1: // truncate
			corrupt = corrupt[:1+rng.Intn(len(corrupt)-1)]
		case 2: // random byte stomp
			p := 1 + rng.Intn(len(corrupt)-1)
			corrupt[p] = byte(rng.Intn(256))
		}
		_ = DecodeInto(corrupt, out) // must not panic
		if !bytes.Equal(arena[:guard], make([]byte, guard)) || !bytes.Equal(arena[guard+len(in):], make([]byte, guard)) {
			t.Fatalf("corruption %d wrote outside the window", i)
		}
	}
}

func TestParseAlgo(t *testing.T) {
	good := map[string]Algo{
		"auto": AlgoAuto, "adaptive": AlgoAdaptive, "raw": AlgoRaw,
		"zero": AlgoZero, "deflate": AlgoDeflate, "gzip": AlgoDeflate,
	}
	for name, want := range good {
		got, err := ParseAlgo(name)
		if err != nil || got != want || (name != "gzip" && got.String() != name) {
			t.Fatalf("ParseAlgo(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "lz4", "zstd", "Zero"} {
		if _, err := ParseAlgo(bad); err == nil {
			t.Fatalf("ParseAlgo(%q) should fail", bad)
		}
	}
	// The retired name fails by pointing at its replacement.
	if _, err := ParseAlgo("fast"); err == nil || !bytes.Contains([]byte(err.Error()), []byte(`"zero"`)) {
		t.Fatalf(`ParseAlgo("fast") = %v, want an error naming "zero"`, err)
	}
}

func TestForcedAlgoEncode(t *testing.T) {
	sparse := sparseBytes(1<<20, 9)
	for _, tc := range []struct {
		algo Algo
		tag  byte
	}{
		{AlgoRaw, tagRaw},
		{AlgoZero, tagZero},
		{AlgoDeflate, tagGzip},
	} {
		c := Codec{Algo: tc.algo}
		wire, err := c.Encode(sparse)
		if err != nil {
			t.Fatalf("%v: %v", tc.algo, err)
		}
		if wire[0] != tc.tag {
			t.Fatalf("%v: got tag %d, want %d", tc.algo, wire[0], tc.tag)
		}
		out, err := decodeFrame(wire, len(sparse))
		if err != nil || !bytes.Equal(out, sparse) {
			t.Fatalf("%v: round trip failed: %v", tc.algo, err)
		}
	}
}
