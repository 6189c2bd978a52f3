package xcompress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
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

// The zero-run codec as it was before the 64-byte scan and the clear-once
// decoder, kept verbatim: the wire format is pinned to what it builds.

// zeroRunRef reports how many leading bytes of b (a whole number of words) are
// all-zero words.
func zeroRunRef(b []byte) int {
	n := len(b)
	for len(b) >= 32 && binary.LittleEndian.Uint64(b)|binary.LittleEndian.Uint64(b[8:])|
		binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:]) == 0 {
		b = b[32:]
	}
	for len(b) >= 8 && binary.LittleEndian.Uint64(b) == 0 {
		b = b[8:]
	}
	if len(b) >= 4 && binary.LittleEndian.Uint32(b) == 0 {
		b = b[4:]
	}
	return n - len(b)
}

// literalRunRef reports how many leading bytes of b (a whole number of words)
// come before the first pair of zero words, or len(b) when there is none.
func literalRunRef(b []byte) int {
	n := 0
	for len(b)-n >= 8 {
		v := binary.LittleEndian.Uint64(b[n:])
		switch {
		case v == 0:
			return n
		case v>>32 == 0: // the second word is zero: a pair may start there
			n += 4
		default:
			n += 8
		}
	}
	return len(b)
}

// appendZeroRef appends src's zero-run frame to dst, or reports false (and
// returns dst at its old length) as soon as the frame's body is bound to
// exceed SkipRatio of src.
func appendZeroRef(dst, src []byte) ([]byte, bool) {
	start := len(dst)
	limit := start + 1 + int(SkipRatio*float64(len(src)))
	dst = append(dst, tagZero)
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	words := src[:len(src)&^3]
	for p := 0; p < len(words); {
		z := zeroRunRef(words[p:])
		p += z
		l := literalRunRef(words[p:])
		dst = binary.AppendUvarint(dst, uint64(z/4))
		dst = binary.AppendUvarint(dst, uint64(l/4))
		if len(dst)+l > limit {
			return dst[:start], false
		}
		dst = append(dst, words[p:p+l]...)
		p += l
	}
	dst = append(dst, src[len(words):]...)
	if len(dst) > limit {
		return dst[:start], false
	}
	return dst, true
}

// decodeZeroRef decodes a zero-run frame's body (tag stripped) into dst, writing
// every byte of it: the zeros too, since a chunk window may hold anything.
func decodeZeroRef(body, dst []byte) error {
	malformed := func(what string) error {
		return fmt.Errorf("xcompress: zero-run frame %s", what)
	}
	n, k := binary.Uvarint(body)
	if k <= 0 {
		return malformed("has a truncated header")
	}
	if n != uint64(len(dst)) {
		return fmt.Errorf("xcompress: zero-run frame holds %d bytes, want %d", n, len(dst))
	}
	body = body[k:]
	words := dst[:len(dst)&^3]
	for d := 0; d < len(words); {
		z, k := binary.Uvarint(body)
		if k <= 0 {
			return malformed("has a truncated zero count")
		}
		body = body[k:]
		l, k := binary.Uvarint(body)
		if k <= 0 {
			return malformed("has a truncated literal count")
		}
		body = body[k:]
		left := uint64(len(words)-d) / 4
		switch {
		case z|l == 0:
			return malformed("has an empty sequence")
		case z > left || l > left-z:
			return malformed("overruns the decoded length")
		case l > uint64(len(body))/4:
			return malformed("has literals past its end")
		}
		zb, lb := int(z)*4, int(l)*4
		clear(words[d : d+zb])
		d += zb
		copy(words[d:d+lb], body)
		d += lb
		body = body[lb:]
	}
	if len(body) != len(dst)-len(words) {
		return malformed(fmt.Sprintf("ends with %d bytes, want a %d-byte tail", len(body), len(dst)-len(words)))
	}
	copy(dst[len(words):], body)
	return nil
}

// zeroEdgePayloads are word patterns at the edges of the 64-byte scan and
// of the one-byte count, keyed by name.
func zeroEdgePayloads() map[string][]byte {
	const one, negZero, nan, allOnes = 1, 0x80000000, 0x7fc00000, 0xffffffff
	out := map[string][]byte{}
	words := func(n int, fill uint32) []uint32 {
		w := make([]uint32, n)
		for i := range w {
			w[i] = fill
		}
		return w
	}
	out["lone-zero-at-end"] = wordsOf(append(words(20, 9), 0)...)
	out["lone-zero-at-end-after-run"] = wordsOf(append(append(words(40, 0), words(3, 9)...), 0)...)
	// A zero pair at every offset after 0..17 leading zero words, so it
	// straddles a 64-byte block boundary of the scan from both sides.
	for lead := 0; lead <= 17; lead++ {
		for at := 0; at < 34; at++ {
			w := append(words(lead, 0), words(40, 9)...)
			w[lead+at], w[lead+at+1] = 0, 0
			out[fmt.Sprintf("pair/lead=%d/at=%d", lead, at)] = wordsOf(w...)
		}
	}
	// One nonzero word in each of the 16 slots of the first three blocks,
	// with bits only in its low byte, only in its top bit (−0.0), a NaN and
	// all set; from the buffer's start and from behind a literal.
	for _, v := range []uint32{one, negZero, nan, allOnes} {
		for slot := 0; slot < 48; slot++ {
			w := words(64, 0)
			w[slot] = v
			out[fmt.Sprintf("slot/%#x/%d", v, slot)] = wordsOf(w...)
			out[fmt.Sprintf("slot/%#x/%d/after-literal", v, slot)] = wordsOf(append([]uint32{7}, w...)...)
		}
	}
	// Runs around the one-byte count limit (128 words) and the two-byte one.
	for _, n := range []int{126, 127, 128, 129, 255, 256, 16383, 16384, 16385} {
		out[fmt.Sprintf("zero-run/%d", n)] = wordsOf(append(append(words(3, 9), words(n, 0)...), 9)...)
		out[fmt.Sprintf("literal-run/%d", n)] = wordsOf(append(append(words(200, 0), words(n, 9)...), 0, 0, 9)...)
	}
	// 100 words, the first z zero: the frame is 405−4z bytes against a
	// SkipRatio limit of 341, so it is declined up to z = 15 and taken from
	// z = 16 (exactly at the limit) on.
	for z := 0; z <= 100; z++ {
		out[fmt.Sprintf("skip-ratio/%d", z)] = wordsOf(append(words(z, 0), words(100-z, 9)...)...)
	}
	return out
}

// checkZeroFrame requires appendZero to build the reference's frame (and
// the same accept/decline) behind a prefix, and the frame to decode into a
// 0xA5-filled window as the source.
func checkZeroFrame(t testing.TB, name string, in []byte) {
	t.Helper()
	prefix := []byte{0xEE, 0xEE}
	got, ok := appendZero(slices.Clone(prefix), in)
	want, wantOK := appendZeroRef(slices.Clone(prefix), in)
	if ok != wantOK || !bytes.Equal(got, want) {
		t.Fatalf("%s (%d bytes): frame of %d bytes (ok %v), the reference builds %d bytes (ok %v)", name, len(in), len(got), ok, len(want), wantOK)
	}
	if !ok {
		return
	}
	dst := bytes.Repeat([]byte{0xA5}, len(in))
	if err := decodeZero(got[len(prefix)+1:], dst); err != nil || !bytes.Equal(dst, in) {
		t.Fatalf("%s (%d bytes): decoding the frame into a dirty window did not give back the source (%v)", name, len(in), err)
	}
}

// TestZeroFrameMatchesReference pins the wire format: on every shape, density,
// short length and scan edge the frames are byte-identical to the reference
// codec's, declined or taken alike, and decode back to their source.
func TestZeroFrameMatchesReference(t *testing.T) {
	for name, in := range zeroRunShapes() {
		checkZeroFrame(t, name, in)
	}
	for _, pct := range []float64{0, 0.5, 1, 2, 5, 10, 20, 30, 40, 50} {
		checkZeroFrame(t, fmt.Sprintf("sparse-floats/%g%%", pct), sparseFloats(256<<10, pct/100, int64(pct*10)))
	}
	checkZeroFrame(t, "sparse-floats/1MiB", sparseFloats(1<<20, 0.02, 5))
	bases := map[string][]byte{
		"sparse-5%":  sparseFloats(260, 0.05, 1),
		"sparse-30%": sparseFloats(260, 0.30, 2),
		"zeros":      make([]byte, 260),
		"text":       textBytes(260),
	}
	for name, base := range bases {
		for n := 0; n <= len(base); n++ {
			checkZeroFrame(t, name, base[:n])
		}
	}
	var taken, atLimit int
	for name, in := range zeroEdgePayloads() {
		checkZeroFrame(t, name, in)
		if frame, ok := appendZero(nil, in); ok {
			taken++
			if len(frame) == 1+int(SkipRatio*float64(len(in))) {
				atLimit++
			}
		}
	}
	if taken == 0 || atLimit == 0 {
		t.Fatalf("edge payloads: %d frames taken, %d exactly at the SkipRatio limit; want both > 0", taken, atLimit)
	}
}

// FuzzZeroFrame holds the codec to its reference from both sides: in's frame
// must be the reference's, byte for byte, and decode into a 0xA5-filled window
// as in; and in read as a frame body must be refused by both decoders or
// decoded by both to the same bytes.
func FuzzZeroFrame(f *testing.F) {
	shapes := zeroRunShapes()
	for _, name := range slices.Sorted(maps.Keys(shapes)) {
		f.Add(shapes[name][:min(len(shapes[name]), 4096)])
	}
	edges := zeroEdgePayloads()
	for _, name := range []string{"lone-zero-at-end", "pair/lead=15/at=0", "slot/0x80000000/15", "zero-run/128", "literal-run/128", "skip-ratio/16"} {
		f.Add(edges[name])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkZeroFrame(t, "fuzzed", in)
		for _, n := range []int{len(in), 4 * len(in)} {
			got, want := bytes.Repeat([]byte{0xA5}, n), make([]byte, n)
			err, wantErr := decodeZero(in, got), decodeZeroRef(in, want)
			if (err == nil) != (wantErr == nil) || (err == nil && !bytes.Equal(got, want)) {
				t.Fatalf("as a %d-byte window's frame body: %v, the reference %v", n, err, wantErr)
			}
		}
	})
}

// BenchmarkZeroCodec reports the zero-run codec's encode and decode rates in
// MB/s of decoded bytes: over one warm 1 MiB chunk of float32 words at 0.5,
// 2, 10 and 30% nonzero, and over a 256 MiB buffer at 2% walked chunk by
// chunk, so every chunk comes from memory rather than cache.
func BenchmarkZeroCodec(b *testing.B) {
	const chunk = 1 << 20
	for _, pct := range []float64{0.5, 2, 10, 30} {
		src := sparseFloats(chunk, pct/100, 1)
		frame, ok := appendZero(nil, src)
		if !ok {
			b.Fatalf("%g%%: the frame was declined", pct)
		}
		b.Run(fmt.Sprintf("warm/%gpct/encode", pct), func(b *testing.B) {
			b.SetBytes(chunk)
			dst := frame[:0:len(frame)]
			for b.Loop() {
				dst, _ = appendZero(dst[:0], src)
			}
		})
		b.Run(fmt.Sprintf("warm/%gpct/decode", pct), func(b *testing.B) {
			b.SetBytes(chunk)
			out := make([]byte, chunk)
			for b.Loop() {
				if err := decodeZero(frame[1:], out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("cold/2pct", func(b *testing.B) {
		const walk = 256 << 20
		src := sparseFloats(walk, 0.02, 2)
		frames := make([][]byte, walk/chunk)
		for i := range frames {
			frames[i], _ = appendZero(nil, src[i*chunk:(i+1)*chunk])
		}
		b.Run("encode", func(b *testing.B) {
			b.SetBytes(walk)
			for b.Loop() {
				for i := range frames {
					frames[i], _ = appendZero(frames[i][:0], src[i*chunk:(i+1)*chunk])
				}
			}
		})
		b.Run("decode", func(b *testing.B) {
			b.SetBytes(walk)
			for b.Loop() {
				for i, frame := range frames {
					if err := decodeZero(frame[1:], src[i*chunk:(i+1)*chunk]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	})
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
