package xcompress

import (
	"bytes"
	"maps"
	"slices"
	"testing"
)

// FuzzDecodeInto fuzzes the one decoder from both sides. in is read once as
// a wire frame of unknown origin decoded into n bytes — it must not panic,
// must not write outside dst, and a nil return must mean every byte of dst
// was written (two decodes over differently pre-filled windows agree) — and
// once as a payload: its frame under each verdict must decode to exactly it,
// and into no other length.
func FuzzDecodeInto(f *testing.F) {
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

	const guard = 32
	f.Fuzz(func(t *testing.T, in []byte, n uint16) {
		// A frame of unknown origin.
		var windows [2][]byte
		var errs [2]error
		for i, fill := range []byte{0xAA, 0x00} {
			arena := bytes.Repeat([]byte{0xA5}, guard+int(n)+guard)
			dst := arena[guard : guard+int(n) : guard+int(n)]
			for j := range dst {
				dst[j] = fill
			}
			errs[i] = DecodeInto(in, dst)
			if !bytes.Equal(arena[:guard], bytes.Repeat([]byte{0xA5}, guard)) ||
				!bytes.Equal(arena[guard+int(n):], bytes.Repeat([]byte{0xA5}, guard)) {
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
