package xcompress

import (
	"bytes"
	"math/rand"
	"runtime/debug"
	"testing"
)

// compressible builds a gzip-friendly payload (repetitive runs with a little
// noise, like the evaluation's sparse matrices).
func compressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := 0; i < n; i += 64 {
		b := byte(rng.Intn(4))
		for j := i; j < i+64 && j < n; j++ {
			out[j] = b
		}
	}
	return out
}

func incompressible(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	rng.Read(out)
	return out
}

// TestAppendEncodeDecodeIntoRoundTrip checks the one encode path against the
// one decoder: every verdict's frame carries the expected tag, never exceeds
// len(src)+1 bytes, and decodes back to the payload.
func TestAppendEncodeDecodeIntoRoundTrip(t *testing.T) {
	c := Codec{MinSize: 1}
	for _, tc := range []struct {
		name string
		buf  []byte
		v    Verdict
		tag  byte
	}{
		{"gzip-compressible", compressible(1<<20, 1), VerdictGzip, tagGzip},
		{"gzip-incompressible-falls-back-raw", incompressible(1<<20, 2), VerdictGzip, tagRaw},
		{"zero-sparse", sparseFloats(1<<20, 0.02, 5), VerdictZero, tagZero},
		{"zero-declined-ships-deflate", textBytes(1 << 20), VerdictZero, tagGzip},
		{"zero-incompressible-falls-back-raw", incompressible(1<<20, 6), VerdictZero, tagRaw},
		{"raw", incompressible(1<<18, 3), VerdictRaw, tagRaw},
		{"auto", compressible(1<<18, 4), VerdictAuto, tagGzip},
		{"auto-sparse", sparseFloats(1<<20, 0.02, 9), VerdictAuto, tagZero},
		{"auto-incompressible", incompressible(1<<20, 8), VerdictAuto, tagRaw},
		{"empty", nil, VerdictRaw, tagRaw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := c.AppendEncode(nil, tc.buf, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if enc[0] != tc.tag {
				t.Fatalf("AppendEncode tag %d, want %d", enc[0], tc.tag)
			}
			if len(enc) > len(tc.buf)+1 {
				t.Fatalf("frame is %d bytes for %d raw, want at most raw+1", len(enc), len(tc.buf))
			}
			dst := make([]byte, len(tc.buf))
			if err := DecodeInto(enc, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, tc.buf) {
				t.Fatal("DecodeInto mismatch")
			}
			// Appending after a prefix leaves the prefix alone and yields
			// the same frame.
			pre, err := c.AppendEncode([]byte("prefix"), tc.buf, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(pre[:6]) != "prefix" || !bytes.Equal(pre[6:], enc) {
				t.Fatal("AppendEncode onto a non-empty dst does not append the same frame")
			}
		})
	}
}

// TestEncodeIsThePlannedChunkFrame is the stored-bytes change of the
// one-engine refactor, stated: a buffer encoded whole under AlgoAuto — the
// single layout of a 64 KiB–1 MiB buffer, or the sequential policy's one
// big frame — is the very frame a chunk of a multi-chunk buffer gets, with
// no mid-stream sync-flush marker from an inline probe.
func TestEncodeIsThePlannedChunkFrame(t *testing.T) {
	c := Codec{}
	for _, n := range []int{300 << 10, 2 << 20} {
		buf := compressible(n, int64(n))
		got, err := c.Encode(buf)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.AppendEncode(nil, buf, VerdictGzip)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: Encode frame (%d B) differs from AppendEncode(VerdictGzip) (%d B)", n, len(got), len(want))
		}
		back, err := decodeFrame(got, n)
		if err != nil || !bytes.Equal(back, buf) {
			t.Fatalf("%d bytes: round trip failed: %v", n, err)
		}
	}
}

// TestRatioIsMeasuresRatio: Ratio is Measure's figure from one encode — or
// none, when the verdict is raw.
func TestRatioIsMeasuresRatio(t *testing.T) {
	sparse, dense := compressible(1<<20, 12), incompressible(1<<20, 13)
	for _, tc := range []struct {
		name   string
		c      Codec
		sample []byte
		isOne  bool
	}{
		{"auto/sparse", Codec{}, sparse, false},
		{"auto/dense", Codec{}, dense, true},
		{"adaptive/sparse", Codec{Algo: AlgoAdaptive}, sparse, false},
		{"deflate/dense", Codec{Algo: AlgoDeflate}, dense, true},
		{"forced-raw/sparse", Codec{Algo: AlgoRaw}, sparse, true},
		// A probe lifts the size threshold, so a disabled codec still
		// reports what compressing would get.
		{"disabled/sparse", Codec{MinSize: -1}, sparse, false},
		{"disabled/dense", Codec{MinSize: -1}, dense, true},
	} {
		r, err := tc.c.Ratio(tc.sample)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		p, err := tc.c.Measure(tc.sample)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r != p.Ratio {
			t.Errorf("%s: Ratio = %v, Measure().Ratio = %v", tc.name, r, p.Ratio)
		}
		if (r == 1) != tc.isOne || r <= 0 || r > 1 {
			t.Errorf("%s: Ratio = %v", tc.name, r)
		}
	}
	if _, err := (Codec{}).Ratio(nil); err == nil {
		t.Error("Ratio of an empty sample should error")
	}
}

// TestAppendEncodeReusesDst pins the pooling contract: a dst with enough
// capacity is extended in place, not reallocated.
func TestAppendEncodeReusesDst(t *testing.T) {
	c := Codec{MinSize: 1}
	buf := compressible(1<<18, 7)
	scratch := make([]byte, 0, len(buf)+64)
	enc, err := c.AppendEncode(scratch, buf, VerdictGzip)
	if err != nil {
		t.Fatal(err)
	}
	if &enc[0] != &scratch[:1][0] {
		t.Fatal("AppendEncode reallocated despite sufficient dst capacity")
	}
}

// TestDecodeIntoSizeMismatch ensures a wrong-size destination is an error,
// not silent truncation — the transfer engine relies on this to catch
// corrupted chunks.
func TestDecodeIntoSizeMismatch(t *testing.T) {
	c := Codec{MinSize: 1}
	buf := compressible(1<<16, 9)
	for _, v := range []Verdict{VerdictRaw, VerdictGzip} {
		enc, err := c.AppendEncode(nil, buf, v)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(enc, make([]byte, len(buf)-1)); err == nil {
			t.Fatalf("verdict %d: short dst must fail", v)
		}
		if err := DecodeInto(enc, make([]byte, len(buf)+1)); err == nil {
			t.Fatalf("verdict %d: long dst must fail", v)
		}
	}
}

// TestEncodeDecodeAllocs is the allocation-regression guard on the chunk
// hot path: with pooled gzip writers/readers and caller-owned buffers, a
// warm encode+decode round trip of a 1 MiB chunk must not re-allocate the
// deflate machinery (~1.3 MB per gzip.NewWriterLevel before pooling).
func TestEncodeDecodeAllocs(t *testing.T) {
	c := Codec{MinSize: 1}
	buf := compressible(1<<20, 11)
	scratch := make([]byte, 0, len(buf)+64)
	dst := make([]byte, len(buf))

	// A collection mid-measurement empties the sync.Pools and bills their
	// refill to the hot path; the budget below is for warm pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Warm the pools.
	for i := 0; i < 3; i++ {
		enc, err := c.AppendEncode(scratch[:0], buf, VerdictGzip)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(enc, dst); err != nil {
			t.Fatal(err)
		}
	}

	allocs := testing.AllocsPerRun(20, func() {
		enc, err := c.AppendEncode(scratch[:0], buf, VerdictGzip)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(enc, dst); err != nil {
			t.Fatal(err)
		}
	})
	// A handful of small allocations (pool interface boxing, error-free
	// bookkeeping) are fine; re-allocating the gzip writer or reader state
	// costs dozens per run and must fail here.
	if allocs > 12 {
		t.Fatalf("gzip encode+decode hot path allocates %.1f objects/run, want <= 12", allocs)
	}

	raw := testing.AllocsPerRun(20, func() {
		enc, err := c.AppendEncode(scratch[:0], buf, VerdictRaw)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(enc, dst); err != nil {
			t.Fatal(err)
		}
	})
	if raw > 2 {
		t.Fatalf("raw encode+decode hot path allocates %.1f objects/run, want <= 2", raw)
	}

	// The zero-run codec has no machinery to pool: nothing at all.
	sparse := sparseFloats(1<<20, 0.02, 12)
	zero := testing.AllocsPerRun(20, func() {
		enc, err := c.AppendEncode(scratch[:0], sparse, VerdictZero)
		if err != nil || enc[0] != tagZero {
			t.Fatal("no zero-run frame")
		}
		if err := DecodeInto(enc, dst); err != nil {
			t.Fatal(err)
		}
	})
	if zero > 0 {
		t.Fatalf("zero-run encode+decode hot path allocates %.1f objects/run, want 0", zero)
	}
}
