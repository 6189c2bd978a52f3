package xcompress

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// denseBytes fills a buffer with uniform random bytes (incompressible).
func denseBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// sparseBytes fills a buffer with mostly zeros plus scattered values
// (highly compressible, LZ77-friendly).
func sparseBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/64; i++ {
		b[rng.Intn(n)] = byte(1 + rng.Intn(255))
	}
	return b
}

// textBytes builds repetitive structured data (mid-range ratio).
func textBytes(n int) []byte {
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString("tile=42 worker=ompcloud-w03 state=running attempt=1\n")
	}
	return b.Bytes()[:n]
}

func TestFastRoundTrip(t *testing.T) {
	cases := map[string][]byte{
		"zeros":     make([]byte, 1<<20),
		"sparse":    sparseBytes(1<<20, 7),
		"text":      textBytes(300_000),
		"runs":      bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 50_000),
		"short-run": bytes.Repeat([]byte{9}, 64), // overlapping matches
		"tiny":      []byte("below fastMinInput"),
		// One short match in 19 bytes: the body fits but tag + length
		// header would make the frame 21 bytes (found by FuzzDecodeInto).
		"header-eats-saving": []byte(" wor00 wor100000000"),
		"empty":              {},
	}
	for name, in := range cases {
		wire, err := Codec{}.AppendEncode(nil, in, VerdictFast)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(wire) > len(in)+1 {
			// Fast must never expand beyond the raw frame: incompressible
			// inputs fall back to tagRaw.
			t.Fatalf("%s: wire %d bytes for %d raw", name, len(wire), len(in))
		}
		out := make([]byte, len(in))
		if err := DecodeInto(wire, out); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

func TestFastRoundTripQuick(t *testing.T) {
	f := func(in []byte) bool {
		wire, err := Codec{}.AppendEncode(nil, in, VerdictFast)
		if err != nil || len(wire) > len(in)+1 {
			return false
		}
		out := make([]byte, len(in))
		if err := DecodeInto(wire, out); err != nil {
			return false
		}
		return bytes.Equal(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFastRatioBeatsRawOnSparse(t *testing.T) {
	in := sparseBytes(1<<20, 3)
	wire, err := Codec{}.AppendEncode(nil, in, VerdictFast)
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != tagFast {
		t.Fatalf("sparse input should take the fast frame, got tag %d", wire[0])
	}
	if len(wire) > len(in)/4 {
		t.Fatalf("poor fast ratio on sparse data: %d of %d", len(wire), len(in))
	}
}

func TestFastIncompressibleFallsBackToRaw(t *testing.T) {
	in := denseBytes(1<<20, 5)
	wire, err := Codec{}.AppendEncode(nil, in, VerdictFast)
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != tagRaw {
		t.Fatalf("dense input must fall back to raw, got tag %d", wire[0])
	}
	if len(wire) != len(in)+1 {
		t.Fatalf("raw fallback wire is %d bytes, want %d", len(wire), len(in)+1)
	}
}

// TestFastDecodeRejectsCorruption fuzzes bit flips and truncations over a
// valid fast frame: decoding must either error out or (for flips that only
// touch literal bytes) produce output of the right length — never panic or
// write out of bounds.
func TestFastDecodeRejectsCorruption(t *testing.T) {
	in := textBytes(100_000)
	wire, err := Codec{}.AppendEncode(nil, in, VerdictFast)
	if err != nil {
		t.Fatal(err)
	}
	if wire[0] != tagFast {
		t.Fatal("expected a fast frame")
	}
	rng := rand.New(rand.NewSource(11))
	out := make([]byte, len(in))
	for i := 0; i < 500; i++ {
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
	}
	// Wrong-length destinations must be rejected, not silently filled.
	if err := DecodeInto(wire, make([]byte, len(in)-1)); err == nil {
		t.Fatal("short dst must error")
	}
	if err := DecodeInto(wire, make([]byte, len(in)+1)); err == nil {
		t.Fatal("long dst must error")
	}
}

func TestParseAlgo(t *testing.T) {
	good := map[string]Algo{
		"auto": AlgoAuto, "adaptive": AlgoAdaptive, "raw": AlgoRaw,
		"fast": AlgoFast, "deflate": AlgoDeflate, "gzip": AlgoDeflate,
	}
	for name, want := range good {
		got, err := ParseAlgo(name)
		if err != nil || got != want {
			t.Fatalf("ParseAlgo(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "lz4", "zstd", "Fast"} {
		if _, err := ParseAlgo(bad); err == nil {
			t.Fatalf("ParseAlgo(%q) should fail", bad)
		}
	}
}

func TestForcedAlgoEncode(t *testing.T) {
	sparse := sparseBytes(1<<20, 9)
	for _, tc := range []struct {
		algo Algo
		tag  byte
	}{
		{AlgoRaw, tagRaw},
		{AlgoFast, tagFast},
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
