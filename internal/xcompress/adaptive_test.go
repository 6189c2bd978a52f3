package xcompress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// mixedBuffer builds a buffer whose head is dense random bytes and whose
// remainder is zeros — the shape that used to defeat the head-only probe.
func mixedBuffer(n, denseHead int) []byte {
	b := make([]byte, n)
	copy(b, denseBytes(denseHead, 21))
	return b
}

// bufferVerdict is the verdict c's Planner gives buf's first chunk when buf
// is planned as one buffer.
func bufferVerdict(c Codec, buf []byte, wireBPS float64) Verdict {
	return c.Planner(buf, wireBPS)(buf[:min(len(buf), 1<<20)])
}

// compresses reports whether v is a verdict that compresses.
func compresses(v Verdict) bool { return v == VerdictGzip || v == VerdictZero }

// TestProbeVerdictMixedBuffer is the regression for the head-probe
// misclassification: a buffer with a dense 512 KiB head but a sparse 3.5 MiB
// tail used to probe as VerdictRaw and ship ~4 MiB of zeros uncompressed.
// The fixed probe samples head, middle, and tail. Which compressor a sparse
// sample gets is the probe's business (TestAutoVerdictIsTheSmallerFrame);
// that the buffer compresses is the property.
func TestProbeVerdictMixedBuffer(t *testing.T) {
	c := Codec{}
	buf := mixedBuffer(4<<20, 512<<10)
	if v := bufferVerdict(c, buf, 0); !compresses(v) {
		t.Fatalf("mixed buffer probed as %v; dense head must not veto a sparse bulk", v)
	}
	// The reverse shape (sparse head, dense tail) already compressed via
	// the head sample; it must keep doing so, relying on the per-chunk
	// fallbacks for the dense fraction.
	rev := make([]byte, 4<<20)
	copy(rev[len(rev)-(512<<10):], denseBytes(512<<10, 22))
	if v := bufferVerdict(c, rev, 0); !compresses(v) {
		t.Fatalf("sparse-head buffer probed as %v, want a compressing verdict", v)
	}
	// Fully dense buffers must still ship raw.
	if v := bufferVerdict(c, denseBytes(4<<20, 23), 0); v != VerdictRaw {
		t.Fatal("fully dense buffer must still probe as VerdictRaw")
	}
	// Fully sparse buffers compress.
	if v := bufferVerdict(c, make([]byte, 4<<20), 0); !compresses(v) {
		t.Fatal("sparse buffer must probe as a compressing verdict")
	}
}

// TestAutoVerdictIsTheSmallerFrame: auto's choice between its two compressors
// is the one whose frame of the deciding sample is smaller — zero-run on
// zero-sparse float32, deflate on data with repeats but no zero runs and on
// data too dense in nonzeros for dropping zeros to beat entropy coding — and
// the same bytes always get the same verdict.
func TestAutoVerdictIsTheSmallerFrame(t *testing.T) {
	for name, buf := range map[string][]byte{
		"zeros":      make([]byte, 2<<20),
		"sparse-2%":  sparseFloats(2<<20, 0.02, 1),
		"sparse-60%": sparseFloats(2<<20, 0.60, 2),
		"text":       textBytes(2 << 20),
		"quarter":    compressible(2<<20, 3),
	} {
		v := bufferVerdict(Codec{}, buf, 0)
		if !compresses(v) {
			t.Errorf("%s: verdict %v, want a compressing one", name, v)
			continue
		}
		sample := buf[:sampleSize]
		gz, err := frameBody(sample, VerdictGzip)
		if err != nil {
			t.Fatal(err)
		}
		z, ok := appendZero(nil, sample)
		if want := ok && len(z)-1 <= gz; (v == VerdictZero) != want {
			t.Errorf("%s: verdict %v with a %d-byte zero-run frame (accepted: %v) against deflate's %d", name, v, len(z), ok, gz)
		}
		if again := bufferVerdict(Codec{}, buf, 0); again != v {
			t.Errorf("%s: verdict %v then %v for the same bytes", name, v, again)
		}
	}
	if v := bufferVerdict(Codec{}, sparseFloats(2<<20, 0.02, 1), 0); v != VerdictZero {
		t.Errorf("data.Generate-style sparse float32 got %v, want the zero-run verdict", v)
	}
	if v := bufferVerdict(Codec{}, textBytes(2<<20), 0); v != VerdictGzip {
		t.Errorf("text got %v, want the deflate verdict", v)
	}
}

// TestEncodeMixedBuffer checks the same fix through the whole-buffer entry
// point: Encode must compress a dense-head/sparse-tail buffer instead of
// shipping it raw on the head sample.
func TestEncodeMixedBuffer(t *testing.T) {
	c := Codec{}
	buf := mixedBuffer(4<<20, 512<<10)
	wire, err := c.Encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !IsCompressed(wire) {
		t.Fatal("mixed buffer shipped raw: head probe vetoed a sparse bulk")
	}
	if len(wire) > len(buf)/2 {
		t.Fatalf("mixed buffer wire is %d of %d raw bytes", len(wire), len(buf))
	}
	out, err := decodeFrame(wire, len(buf))
	if err != nil || !bytes.Equal(out, buf) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestChunkVerdictMatrix(t *testing.T) {
	c := Codec{Algo: AlgoAdaptive}
	sparse := make([]byte, 1<<20)
	dense := denseBytes(1<<20, 31)
	const (
		slowWire    = 25e6  // 200 Mbps — slower than deflate on raw bytes
		fastWire    = 500e6 // faster than deflate: codec is the critical path
		starvedWire = 1e3   // slower than deflate even on compressed bytes
	)
	cases := []struct {
		name    string
		chunk   []byte
		wireBPS float64
		want    Verdict
	}{
		{"sparse/codec-bound", sparse, fastWire, VerdictZero},
		{"sparse/unknown-wire", sparse, 0, VerdictZero},
		// 200 Mbps looks wire-bound against raw bytes, but sparse data
		// compresses ~25x: the wire drains compressed bytes far faster
		// than deflate produces them, so zero-run (not deflate) minimizes
		// pipelined time. Only a wire slow on *compressed* bytes
		// justifies deflate's extra compression wall.
		{"sparse/wire-bound-raw-bytes", sparse, slowWire, VerdictZero},
		{"sparse/wire-starved", sparse, starvedWire, VerdictGzip},
		{"dense/codec-bound", dense, fastWire, VerdictRaw},
		{"dense/wire-bound", dense, slowWire, VerdictRaw}, // entropy ~8 bits: nothing helps
		{"tiny", make([]byte, 1024), slowWire, VerdictRaw},
	}
	for _, tc := range cases {
		if got := bufferVerdict(c, tc.chunk, tc.wireBPS); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestChunkVerdictDenseFloat32: random-mantissa float32 data has byte
// entropy below the raw cut (the exponent byte is skewed) and no zero runs
// to drop — it must ship raw when codec-bound and deflate when wire-bound
// (deflate's entropy coder still wins ~9%).
func TestChunkVerdictDenseFloat32(t *testing.T) {
	c := Codec{Algo: AlgoAdaptive}
	buf := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(41))
	for i := 0; i+4 <= len(buf); i += 4 {
		// sign/exponent byte fixed-ish, mantissa random: ~23 random bits.
		buf[i] = byte(rng.Intn(256))
		buf[i+1] = byte(rng.Intn(256))
		buf[i+2] = byte(rng.Intn(128))
		buf[i+3] = 0x3f
	}
	if got := bufferVerdict(c, buf, 500e6); got != VerdictRaw {
		t.Errorf("codec-bound dense floats: got %v, want VerdictRaw", got)
	}
	if got := bufferVerdict(c, buf, 25e6); got != VerdictGzip {
		t.Errorf("wire-bound dense floats: got %v, want VerdictGzip", got)
	}
}

func TestPlanner(t *testing.T) {
	sparse := make([]byte, 4<<20)
	mixed := mixedBuffer(4<<20, 2<<20)

	// Forced algos: constant verdict regardless of content.
	for algo, want := range map[Algo]Verdict{AlgoRaw: VerdictRaw, AlgoZero: VerdictZero, AlgoDeflate: VerdictGzip} {
		if v := (Codec{Algo: algo}).Planner(mixed, 0)(denseBytes(1<<20, 51)); v != want {
			t.Fatalf("forced %v planner returned %v", algo, v)
		}
	}
	// Auto: one probe for the whole buffer, so a chunk's own content does
	// not change the verdict — and a sparse buffer's verdict compresses.
	plan := (Codec{}).Planner(sparse, 0)
	if v := plan(sparse[:1<<20]); !compresses(v) || plan(denseBytes(1<<20, 52)) != v {
		t.Fatalf("auto planner on sparse buffer returned %v, then %v for a dense chunk", v, plan(denseBytes(1<<20, 52)))
	}
	// Adaptive: the dense half ships raw, the sparse half compressed — the
	// per-chunk policy the one-verdict-per-buffer probe cannot express.
	plan = (Codec{Algo: AlgoAdaptive}).Planner(mixed, 500e6)
	if v := plan(mixed[:1<<20]); v != VerdictRaw {
		t.Fatalf("adaptive planner on dense chunk returned %v", v)
	}
	if v := plan(mixed[3<<20:]); !compresses(v) {
		t.Fatalf("adaptive planner on sparse chunk returned %v", v)
	}
}

func TestSampleEntropyBounds(t *testing.T) {
	if h := sampleEntropy(make([]byte, 1<<20)); h != 0 {
		t.Fatalf("zeros entropy = %v, want 0", h)
	}
	if h := sampleEntropy(denseBytes(1<<20, 61)); h < 7.9 {
		t.Fatalf("random entropy = %v, want ~8", h)
	}
	if h := sampleEntropy(nil); h != 0 {
		t.Fatalf("empty entropy = %v", h)
	}
}

// --- alloc gates ---------------------------------------------------------

func TestAppendEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	c := Codec{}
	sparse := make([]byte, 1<<20)
	dense := denseBytes(1<<20, 71)
	dst := make([]byte, 0, (1<<20)+(1<<16))
	for _, tc := range []struct {
		name  string
		buf   []byte
		v     Verdict
		allow float64
	}{
		{"raw", dense, VerdictRaw, 0},
		{"zero", sparse, VerdictZero, 0},
		{"gzip", sparse, VerdictGzip, 0},
		{"zero-declined", dense, VerdictZero, 0},
	} {
		// Warm the pools outside the measured region.
		if _, err := c.AppendEncode(dst[:0], tc.buf, tc.v); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			out, err := c.AppendEncode(dst[:0], tc.buf, tc.v)
			if err != nil || len(out) == 0 {
				t.Fatal("encode failed")
			}
		})
		if allocs > tc.allow {
			t.Errorf("AppendEncode/%s: %v allocs/run, want %v", tc.name, allocs, tc.allow)
		}
	}
}

func TestDecodeIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	c := Codec{}
	sparse := make([]byte, 1<<20)
	dense := denseBytes(1<<20, 81)
	out := make([]byte, 1<<20)
	for _, tc := range []struct {
		name string
		buf  []byte
		v    Verdict
	}{
		{"raw", dense, VerdictRaw},
		{"zero", sparse, VerdictZero},
		{"gzip", sparse, VerdictGzip},
	} {
		wire, err := c.AppendEncode(nil, tc.buf, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(wire, out); err != nil { // warm pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := DecodeInto(wire, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("DecodeInto/%s: %v allocs/run, want 0", tc.name, allocs)
		}
	}
}

func TestChunkVerdictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc gates are meaningless under -race instrumentation")
	}
	c := Codec{Algo: AlgoAdaptive}
	sparse := make([]byte, 1<<20)
	dense := denseBytes(1<<20, 91)
	// One Planner call per buffer; its verdict function runs per chunk.
	slow, fast := c.Planner(sparse, 25e6), c.Planner(sparse, 500e6)
	slow(sparse) // warm the probe pool
	allocs := testing.AllocsPerRun(10, func() {
		slow(sparse)
		slow(dense)
		fast(sparse)
		fast(dense)
	})
	if allocs > 0 {
		t.Errorf("adaptive per-chunk verdict: %v allocs/run, want 0", allocs)
	}
}

// denseFloats fills n bytes with uniform float32 words in [-1, 1), the
// benchmark's dense matrices: gzip gets ~0.91 of them, over SkipRatio.
func denseFloats(n int, seed int64) []byte {
	b := make([]byte, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(rng.Float32()*2-1))
	}
	return b
}

// BenchmarkProbeVerdict times the codec's two probes: AlgoAuto's verdict
// over a 4 MiB buffer (Planner: up to three 64 KiB gzip samples, plus a
// zero-run frame of the first that compresses), and Codec.Ratio over the
// 1 MiB head a driver-resident buffer is priced on. ms/probe is one
// decision's cost; MB/s is the bytes it decides for per second.
func BenchmarkProbeVerdict(b *testing.B) {
	const n = 4 << 20
	head := sparseFloats(n, 0.02, 3)
	copy(head, denseFloats(1<<20, 4))
	for _, c := range []struct {
		name string
		buf  []byte
		want Verdict
	}{
		{"dense", denseFloats(n, 1), VerdictRaw},
		{"sparse-2pct", sparseFloats(n, 0.02, 2), VerdictZero},
		{"dense-head-sparse-bulk", head, VerdictZero},
	} {
		b.Run("planner/"+c.name, func(b *testing.B) {
			if v := bufferVerdict(Codec{}, c.buf, 0); v != c.want {
				b.Fatalf("verdict %d, want %d", v, c.want)
			}
			b.SetBytes(n)
			for b.Loop() {
				Codec{}.Planner(c.buf, 0)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/probe")
		})
	}
	b.Run("ratio/dense-1MiB", func(b *testing.B) {
		sample := denseFloats(1<<20, 5)
		b.SetBytes(int64(len(sample)))
		for b.Loop() {
			if r, err := (Codec{}).Ratio(sample); err != nil || r != 1 {
				b.Fatalf("ratio %v, %v: want a raw verdict's 1", r, err)
			}
		}
		b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/probe")
	})
}
