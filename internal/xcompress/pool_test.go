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

// TestAppendEncodeDecodeIntoRoundTrip checks the pooled hot path against the
// allocating reference implementations for both verdicts.
func TestAppendEncodeDecodeIntoRoundTrip(t *testing.T) {
	c := Codec{MinSize: 1}
	for _, tc := range []struct {
		name string
		buf  []byte
		v    Verdict
	}{
		{"gzip-compressible", compressible(1<<20, 1), VerdictGzip},
		{"gzip-incompressible-falls-back-raw", incompressible(1<<20, 2), VerdictGzip},
		{"raw", incompressible(1<<18, 3), VerdictRaw},
		{"auto", compressible(1<<18, 4), VerdictAuto},
		{"empty", nil, VerdictRaw},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := c.AppendEncode(nil, tc.buf, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := c.EncodeWith(tc.buf, tc.v)
			if err != nil {
				t.Fatal(err)
			}
			// Both must decode to the payload; the frames themselves may
			// differ only in deflate block boundaries, so compare decoded.
			back, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, tc.buf) {
				t.Fatal("AppendEncode frame does not round-trip via Decode")
			}
			if enc[0] != ref[0] {
				t.Fatalf("AppendEncode tag %d, EncodeWith tag %d", enc[0], ref[0])
			}
			dst := make([]byte, len(tc.buf))
			if err := DecodeInto(enc, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, tc.buf) {
				t.Fatal("DecodeInto mismatch")
			}
			if err := DecodeInto(ref, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, tc.buf) {
				t.Fatal("DecodeInto(EncodeWith frame) mismatch")
			}
		})
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
}
