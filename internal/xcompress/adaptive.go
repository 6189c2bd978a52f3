package xcompress

// Adaptive per-chunk codec selection (AlgoAdaptive). The AlgoAuto policy
// probes a buffer once and applies one verdict to every chunk, which
// misclassifies mixed buffers and cannot weigh a codec against the wire.
// chunkVerdict instead decides per chunk from two cheap probes plus a
// wire-rate cost model:
//
//  1. A strided byte-entropy sample. Near-8-bits/byte chunks are
//     incompressible by any byte-oriented codec — ship raw without touching
//     a compressor.
//  2. A zero-run trial on three small segments (head/mid/tail). If the chunk
//     has no zero words to drop, deflate might still win a few percent via
//     entropy coding — worth it only when the wire is the bottleneck.
//
// The wire-bound test compares the per-worker wire rate against deflate's
// single-core throughput scaled by the estimated output ratio: the wire
// only carries compressed bytes, so a chunk that compresses r:1 drains at
// wireBPS/r in raw-byte terms. Deflate wins only when even that effective
// rate is below deflate's throughput (compression hides under
// transmission in the pipelined engine); otherwise the codec is the
// critical path and the cheapest acceptable codec wins (zero-run, or raw for
// dense data). Skipping the ratio scaling is the classic mistake: sparse
// data at ratio 0.03 over a 200 Mbps WAN looks "wire-bound" against raw
// bytes but its effective drain rate is ~800 MB/s — deflate would become
// the bottleneck. On zero-sparse float32 data the choice costs no bytes
// either way: zero-run's frame is the smaller of the two, so a wrong
// DeflateBytesPerS for this host can no longer pick a codec that loses on
// both axes.

import (
	"math"

	"ompcloud/internal/arena"
)

const (
	// DeflateBytesPerS estimates single-core gzip BestSpeed compression
	// throughput on this class of hardware (raw bytes/s). The adaptive
	// verdict treats a wire slower than this as wire-bound.
	DeflateBytesPerS = 80e6
	// entropyRawBits: a strided byte-entropy sample above this is treated
	// as incompressible (uniform random bytes measure ~7.97; dense float32
	// payloads with a skewed exponent byte land lower and fall through to
	// the zero-run trial).
	entropyRawBits = 7.9
	// probeSeg is the size of each zero-run trial segment.
	probeSeg = 16 << 10
	// entropyOnlyRatio estimates deflate's output ratio on chunks with no
	// zero runs, where mostly the entropy coder helps (dense
	// random-mantissa float32 measures ~0.91).
	entropyOnlyRatio = 0.9
)

// entropySampleSpan caps how many bytes the entropy probe touches.
const entropySampleSpan = 32 << 10

// sampleEntropy estimates the chunk's byte entropy in bits/byte from a
// strided sample of at most entropySampleSpan bytes. The histogram lives on
// the stack; no allocation.
func sampleEntropy(b []byte) float64 {
	if len(b) == 0 {
		return 0
	}
	var hist [256]int
	stride := len(b) / entropySampleSpan
	if stride < 1 {
		stride = 1
	}
	// Keep the stride odd: an even stride aliases with fixed-width records
	// (e.g. float32 lanes, where stride 32 would sample only mantissa
	// bytes and misread a skewed-exponent payload as uniform random).
	if stride&1 == 0 {
		stride++
	}
	n := 0
	for i := 0; i < len(b); i += stride {
		hist[b[i]]++
		n++
	}
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// zeroSampleRatio runs the zero-run codec over three small segments (head,
// middle, tail) and returns the combined compression ratio. Segments it
// declines (nothing to drop) count as ratio 1. The trial scratch comes from
// the arena, so chunkVerdict stays allocation-free on the hot path.
func zeroSampleRatio(chunk []byte) float64 {
	scratch := probeScratch(min(len(chunk), probeSeg))
	total, wire := 0, 0
	trial := func(seg []byte) {
		out, ok := appendZero(scratch, seg)
		if ok {
			wire += len(out)
		} else {
			wire += len(seg)
		}
		total += len(seg)
	}
	if len(chunk) <= 3*probeSeg {
		trial(chunk)
	} else {
		trial(chunk[:probeSeg])
		mid := (len(chunk) - probeSeg) / 2
		trial(chunk[mid : mid+probeSeg])
		trial(chunk[len(chunk)-probeSeg:])
	}
	arena.Put(scratch)
	if total == 0 {
		return 1
	}
	return float64(wire) / float64(total)
}

// chunkVerdict is AlgoAdaptive's arm of Planner: it picks a codec for one
// chunk already past the size threshold. wireBPS is the wire bandwidth
// available to this chunk's transmission (bytes/s, e.g. the WAN rate divided
// by the number of parallel transfer workers); 0 means unknown/unbounded, in
// which case the codec is assumed to be the critical path.
func chunkVerdict(chunk []byte, wireBPS float64) Verdict {
	if sampleEntropy(chunk) > entropyRawBits {
		// Uniform random bytes: nothing can compress this, don't try.
		return VerdictRaw
	}
	// Wire-bound iff the wire's effective drain rate in raw-byte terms
	// (wireBPS divided by the estimated output ratio) stays below deflate's
	// throughput: only then does deflate's compression time hide under
	// transmission instead of becoming the pipeline's critical path.
	r := zeroSampleRatio(chunk)
	if r > SkipRatio {
		// No zero runs to drop. Deflate's entropy coder may still shave
		// a few percent (dense float32 → ~0.91): pay for it only when
		// transmission, not compression, is the bottleneck.
		if wireBPS > 0 && wireBPS < entropyOnlyRatio*DeflateBytesPerS {
			return VerdictGzip
		}
		return VerdictRaw
	}
	// Sparse chunks: wire-bound even on compressed bytes means deflate's
	// time hides under transmission, and it may find repeats among the
	// literals that zero-run ships verbatim.
	if wireBPS > 0 && wireBPS < r*DeflateBytesPerS {
		return VerdictGzip
	}
	return VerdictZero // codec-bound: cheapest acceptable codec wins
}
