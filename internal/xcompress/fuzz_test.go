package xcompress

import (
	"bytes"
	"io"
	"maps"
	"slices"
	"testing"
	"testing/iotest"
)

// addFrameSeeds seeds a fuzz target taking (frame, len(dst)) with frames of
// every codec for their own, shorter and longer payloads, cut-short frames,
// and frames no encoder builds.
func addFrameSeeds(f *testing.F) {
	c := Codec{MinSize: 1}
	shapes := zeroRunShapes()
	for _, seed := range []struct {
		buf []byte
		v   Verdict
	}{
		{textBytes(3000), VerdictRaw},
		{textBytes(3000), VerdictGzip},
		{textBytes(3000), VerdictZero}, // declined: ships deflate
		{sparseFloats(8<<10, 0.02, 3), VerdictZero},
		{sparseBytes(8<<10, 3), VerdictZero},
		{denseBytes(512, 4), VerdictGzip}, // falls back to raw
		{make([]byte, 4096), VerdictZero},
		{append(make([]byte, 4096), 1, 2, 3), VerdictZero}, // unaligned tail
		{shapes["no-zero"][:2048], VerdictZero},
		{shapes["alternating"][:2048], VerdictZero},
		{shapes["neg-zero-nan"], VerdictZero},
	} {
		frame, err := c.AppendEncode(nil, seed.buf, seed.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame, uint16(len(seed.buf)))
		f.Add(frame, uint16(len(seed.buf)-1))
		f.Add(frame[:len(frame)/2], uint16(len(seed.buf)))
		f.Add(frame[:2], uint16(len(seed.buf)))
	}
	f.Add([]byte{TagChunked, '{', '}'}, uint16(2))
	f.Add([]byte{99, 1, 2, 3}, uint16(3))
	f.Add([]byte{}, uint16(0))
	// Zero-run frames no encoder builds (and a frame of the retired tag 3):
	// every one must be refused, for the window it was written for and any other.
	hostile := hostileZeroFrames()
	for _, name := range slices.Sorted(maps.Keys(hostile)) {
		f.Add(hostile[name], uint16(16))
		f.Add(hostile[name], uint16(18))
	}
}

// guard is the width of the fenced bytes around a fuzzed dst.
const guard = 32

// fenced returns an n-byte dst, filled with fill and fenced on both sides,
// and a check that the fences are intact.
func fenced(n int, fill byte) (dst []byte, intact func() bool) {
	arena := bytes.Repeat([]byte{0xA5}, guard+n+guard)
	dst = arena[guard : guard+n : guard+n]
	for j := range dst {
		dst[j] = fill
	}
	fence := bytes.Repeat([]byte{0xA5}, guard)
	return dst, func() bool { return bytes.Equal(arena[:guard], fence) && bytes.Equal(arena[guard+n:], fence) }
}

// FuzzDecodeInto fuzzes the one decoder from both sides. in is read once as
// a wire frame of unknown origin decoded into n bytes — it must not panic,
// must not write outside dst, and a nil return must mean every byte of dst
// was written (two decodes over differently pre-filled windows agree) — and
// once as a payload: its frame under each verdict must decode to exactly it,
// into a zeroed destination and into a dirty one alike (the offload driver
// fetches into recycled memory), and into no other length.
func FuzzDecodeInto(f *testing.F) {
	addFrameSeeds(f)
	c := Codec{MinSize: 1}
	f.Fuzz(func(t *testing.T, in []byte, n uint16) {
		// A frame of unknown origin.
		var windows [2][]byte
		var errs [2]error
		for i, fill := range []byte{0xAA, 0x00} {
			dst, intact := fenced(int(n), fill)
			errs[i] = DecodeInto(in, dst)
			if !intact() {
				t.Fatalf("DecodeInto wrote outside its %d-byte dst", n)
			}
			windows[i] = dst
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("decode outcome depends on dst's prior contents: %v vs %v", errs[0], errs[1])
		}
		if errs[0] == nil && !bytes.Equal(windows[0], windows[1]) {
			t.Fatal("a nil return left bytes of dst unwritten")
		}

		// A frame of ours.
		for _, v := range []Verdict{VerdictAuto, VerdictRaw, VerdictGzip, VerdictZero} {
			frame, err := c.AppendEncode(nil, in, v)
			if err != nil {
				t.Fatalf("verdict %d: %v", v, err)
			}
			if len(frame) > len(in)+1 {
				t.Fatalf("verdict %d: frame is %d bytes for %d raw", v, len(frame), len(in))
			}
			back, err := decodeFrame(frame, len(in))
			if err != nil || !bytes.Equal(back, in) {
				t.Fatalf("verdict %d: round trip failed: %v", v, err)
			}
			dirty, intact := fenced(len(in), 0xA5)
			if err := DecodeInto(frame, dirty); err != nil || !intact() || !bytes.Equal(dirty, back) {
				t.Fatalf("verdict %d: decoding into a dirty destination gave other bytes than into a zeroed one (%v)", v, err)
			}
			if _, err := decodeFrame(frame, len(in)+1); err == nil {
				t.Fatalf("verdict %d: decoded into a dst one byte too long", v)
			}
			if len(in) > 0 {
				if _, err := decodeFrame(frame, len(in)-1); err == nil {
					t.Fatalf("verdict %d: decoded into a dst one byte too short", v)
				}
			}
		}
	})
}

// FuzzReadFrame holds the streamed reader to the decoder it stands in for:
// in, read as an n-byte dst's frame off a stream of exactly its bytes — in
// one piece, or a byte at a time — must end as DecodeInto(in, dst) does,
// with the same bytes on success and an error where it fails, and must
// never write outside dst. A stream that ends before the frame does is an
// error.
func FuzzReadFrame(f *testing.F) {
	addFrameSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte, n uint16) {
		want, _ := fenced(int(n), 0)
		wantErr := DecodeInto(in, want)
		var fr FrameReader
		for _, stream := range []struct {
			name string
			r    func() io.Reader
		}{
			{"whole", func() io.Reader { return bytes.NewReader(in) }},
			{"byte-wise", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(in)) }},
		} {
			dst, intact := fenced(int(n), 0xAA)
			fr.Reset(dst)
			err := fr.Receive(int64(len(in)), stream.r())
			if err == nil && fr.Pending() {
				err = fr.Decode()
			}
			if !intact() {
				t.Fatalf("%s: the reader wrote outside its %d-byte dst", stream.name, n)
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: the reader returned %v where DecodeInto returned %v", stream.name, err, wantErr)
			}
			if err == nil && !bytes.Equal(dst, want) {
				t.Fatalf("%s: the reader's bytes differ from DecodeInto's", stream.name)
			}

			dst, intact = fenced(int(n), 0xAA)
			fr.Reset(dst)
			if err := fr.Receive(int64(len(in))+1, stream.r()); err == nil || fr.Pending() {
				t.Fatalf("%s: a stream one byte short of its frame returned %v (pending %v)", stream.name, err, fr.Pending())
			}
			if !intact() {
				t.Fatalf("%s: a short stream wrote outside its %d-byte dst", stream.name, n)
			}
		}
	})
}
