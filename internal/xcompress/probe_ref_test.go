package xcompress

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ompcloud/internal/arena"
	"ompcloud/internal/data"
)

// refSampleSize and probeVerdictRef are the auto probe as it was with 256
// KiB samples — four deflate blocks each — kept verbatim but for their names
// as the reference the one-block samples are checked against.
const refSampleSize = 256 << 10

func probeVerdictRef(buf []byte) Verdict {
	if len(buf) <= refSampleSize {
		// Too small to probe meaningfully; the deflate frame's expansion
		// fallback is the decider.
		return VerdictGzip
	}
	mid := (len(buf) - refSampleSize) / 2
	for _, at := range [...]int{0, mid, len(buf) - refSampleSize} {
		sample := buf[at : at+refSampleSize]
		gz, err := frameBody(sample, VerdictGzip)
		if err != nil {
			// An encode error reads as "compressible": the full encode
			// will find out the truth.
			return VerdictGzip
		}
		if float64(gz) > SkipRatio*float64(len(sample)) {
			continue
		}
		// appendZero itself, not a zero-run verdict's frame: a declined
		// sample must not cost a second deflate to say so.
		scratch := probeScratch(len(sample))
		z, ok := appendZero(scratch, sample)
		arena.Put(scratch)
		if ok && len(z)-1 <= gz {
			return VerdictZero
		}
		return VerdictGzip
	}
	return VerdictRaw
}

// streamFloats fills n bytes the way the stream workloads do: float32 words
// of 24 random mantissa bits from a splitmix64 stream, mapped to [-1, 1).
func streamFloats(n int, seed int64) []byte {
	b := make([]byte, n)
	state := uint64(seed)
	for i := 0; i+4 <= n; i += 4 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(float32(z>>40)/(1<<23)-1))
	}
	return b
}

// generated is data.Generate's n-byte matrix of the given kind, the bytes the
// Polybench workloads map.
func generated(n int, kind data.Kind, seed int64) []byte {
	const cols = 256
	return data.Generate(n/(cols*data.FloatSize), cols, kind, seed).Bytes()
}

// probeCorpus builds the buffers the two probes are compared on, each of n
// bytes (a multiple of 1 KiB).
func probeCorpus(n int, seed int64) map[string][]byte {
	c := map[string][]byte{
		"dense/generate":  generated(n, data.Dense, seed),
		"dense/stream":    streamFloats(n, seed),
		"sparse/generate": generated(n, data.Sparse, seed),
		"text":            textBytes(n),
		"quarter":         compressible(n, seed),
		"zeros":           make([]byte, n),
	}
	for _, pct := range []float64{0.5, 2, 10, 30, 60} {
		c[fmt.Sprintf("sparse/%g%%", pct)] = sparseFloats(n, pct/100, seed)
	}
	// A dense quarter at one end, a sparse bulk: both orders. Below 1 MiB
	// the quarter would end inside the 256 KiB probe's sample at its end,
	// a buffer mixed inside 256 KiB (TestProbeVerdictOneBlockDiffers).
	if n >= 4*refSampleSize {
		head := sparseFloats(n, 0.02, seed)
		copy(head, denseFloats(n/4, seed))
		c["dense-head/sparse-bulk"] = head
		tail := sparseFloats(n, 0.02, seed)
		copy(tail[n-n/4:], denseFloats(n/4, seed))
		c["sparse-bulk/dense-tail"] = tail
	}
	return c
}

// TestProbeVerdictMatchesWideSamples: on every corpus buffer over 256 KiB
// the one-block probe gives the verdict the 256 KiB probe gave.
func TestProbeVerdictMatchesWideSamples(t *testing.T) {
	for _, n := range []int{257 << 10, 384 << 10, 1 << 20, 4 << 20} {
		for seed := int64(1); seed <= 3; seed++ {
			for name, buf := range probeCorpus(n, seed) {
				if got, want := probeVerdict(buf), probeVerdictRef(buf); got != want {
					t.Errorf("%s, %d bytes, seed %d: verdict %v, the 256 KiB probe's %v", name, n, seed, got, want)
				}
			}
		}
	}
}

// TestProbeVerdictOneBlockDiffers states the two intended differences from
// the 256 KiB probe.
func TestProbeVerdictOneBlockDiffers(t *testing.T) {
	// A buffer of 64-256 KiB is probed now. The 256 KiB probe sent it to
	// deflate unprobed, so a dense one was deflated whole before falling
	// back to raw.
	for _, n := range []int{65 << 10, 100 << 10, 256 << 10} {
		dense := generated(n, data.Dense, 5)
		if got, ref := probeVerdict(dense), probeVerdictRef(dense); got != VerdictRaw || ref != VerdictGzip {
			t.Errorf("dense %d bytes: verdict %v (want raw), the 256 KiB probe's %v (want deflate)", len(dense), got, ref)
		}
		sparse := generated(n, data.Sparse, 5)
		if got := probeVerdict(sparse); got != VerdictZero {
			t.Errorf("sparse %d bytes: verdict %v, want zero-run", len(sparse), got)
		}
	}
	// A buffer mixed inside 256 KiB: the three one-block samples are
	// dense and every other byte is zero, so the 256 KiB head sample is
	// three quarters zeros. One block decides on its own bytes, not on its
	// neighbours'.
	const n = 4 << 20
	mixed := make([]byte, n)
	for _, at := range []int{0, (n - sampleSize) / 2, n - sampleSize} {
		copy(mixed[at:], denseFloats(sampleSize, int64(at)))
	}
	if got, ref := probeVerdict(mixed), probeVerdictRef(mixed); got != VerdictRaw || !compresses(ref) {
		t.Errorf("buffer mixed within 256 KiB: verdict %v (want raw), the 256 KiB probe's %v (want a compressing one)", got, ref)
	}
}
