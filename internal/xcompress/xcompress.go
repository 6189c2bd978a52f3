// Package xcompress implements the data-compression policy of the OmpCloud
// offloading plugin (paper §III.A): offloaded buffers larger than a minimum
// size are gzip-compressed before crossing the host-target link, each buffer
// on its own transmission thread. It also provides measurement probes used
// by the calibration layer, because the paper's central sensitivity result
// (Fig. 5, sparse vs dense matrices) is driven entirely by real gzip ratios
// and throughputs.
package xcompress

import (
	"bytes"
	"fmt"
	"time"

	"ompcloud/internal/arena"
	"ompcloud/internal/simtime"
)

// DefaultMinSize is the default threshold below which buffers are sent raw:
// compressing tiny payloads costs more latency than it saves.
const DefaultMinSize = 1 << 16 // 64 KiB

// SkipRatio is the adaptive-compression threshold: when a probe of the
// buffer's head compresses to more than this fraction of its size, the
// whole buffer ships raw. Dense random float32 matrices sit around 0.91 —
// gzip would spend seconds per gigabyte to save 9% of a fast link's time.
const SkipRatio = 0.85

// sampleSize is the size of each of the auto probe's three samples (head,
// middle and tail; see probeVerdict). The adaptive policy samples probeSeg.
const sampleSize = 256 << 10

// Algo selects the frame codec family a Codec uses.
type Algo int

const (
	// AlgoAuto is the default policy: probe the whole buffer once and pick
	// raw, deflate, or zero-run for all of it (see probeVerdict). It is the
	// zero value.
	AlgoAuto Algo = iota
	// AlgoAdaptive probes every chunk independently and picks raw,
	// zero-run, or deflate per chunk from an entropy probe plus a wire-rate
	// cost model (see chunkVerdict).
	AlgoAdaptive
	// AlgoRaw forces raw frames.
	AlgoRaw
	// AlgoZero forces the zero-run codec (deflate, then raw, for a payload
	// it does not shrink; see zero.go).
	AlgoZero
	// AlgoDeflate forces deflate (raw fallback on expansion).
	AlgoDeflate
)

// String reports the Algo's config name.
func (a Algo) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoAdaptive:
		return "adaptive"
	case AlgoRaw:
		return "raw"
	case AlgoZero:
		return "zero"
	case AlgoDeflate:
		return "deflate"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// ParseAlgo resolves a config/CLI codec name. "gzip" is accepted as an
// alias for deflate (the wire frame is a gzip stream).
func ParseAlgo(name string) (Algo, error) {
	switch name {
	case "auto":
		return AlgoAuto, nil
	case "adaptive":
		return AlgoAdaptive, nil
	case "raw":
		return AlgoRaw, nil
	case "zero":
		return AlgoZero, nil
	case "deflate", "gzip":
		return AlgoDeflate, nil
	case "fast":
		return 0, fmt.Errorf("xcompress: codec %q is retired; its replacement is %q", name, "zero")
	}
	return 0, fmt.Errorf("xcompress: unknown codec %q (want auto, adaptive, raw, zero, or deflate)", name)
}

// Codec carries the compression policy for a device plugin instance.
type Codec struct {
	// MinSize is the smallest payload that gets compressed. Zero means
	// DefaultMinSize; negative disables compression entirely.
	MinSize int
	// Algo selects the codec family; the zero value (AlgoAuto) keeps the
	// legacy probe-once-per-buffer behaviour.
	Algo Algo
}

// Enabled reports whether this codec ever compresses.
func (c Codec) Enabled() bool { return c.MinSize >= 0 }

func (c Codec) minSize() int {
	if c.MinSize == 0 {
		return DefaultMinSize
	}
	return c.MinSize
}

// header distinguishes raw from compressed payloads on the wire. One byte is
// enough and keeps the framing trivial to parse on the worker side.
const (
	tagRaw  byte = 0
	tagGzip byte = 1
	// TagChunked marks a multipart-object manifest. The frame body is
	// owned by internal/chunkio; this package only reserves the tag so
	// the layouts share one self-describing first byte.
	TagChunked byte = 2
	// tagZero marks a zero-run frame (see zero.go). Tag 3 was the retired
	// LZ77 "fast" codec's: it is never reused, and DecodeInto rejects it
	// like any unknown tag.
	tagZero byte = 4
)

// Verdict is a per-payload compression decision, made by Planner and carried
// out by AppendEncode.
type Verdict int

const (
	// VerdictAuto asks AppendEncode to plan the payload on its own, as a
	// one-chunk buffer with no wire-rate hint.
	VerdictAuto Verdict = iota
	// VerdictRaw ships the payload uncompressed.
	VerdictRaw
	// VerdictGzip compresses with deflate (still falling back to raw if
	// gzip expands the payload, so the wire size never exceeds len(buf)+1).
	VerdictGzip
	// VerdictZero compresses with the zero-run codec, handing a payload it
	// does not shrink below SkipRatio to VerdictGzip (same wire-size
	// guarantee).
	VerdictZero
)

// Planner is the one place a codec decision is made. Called once per buffer,
// it returns the verdict function the transfer runs once per chunk (a buffer
// encoded whole is its own single chunk):
//
//   - a disabled codec, or a buffer under the size threshold, ships raw;
//   - a forced algo (raw, zero, deflate) is a constant;
//   - AlgoAuto probes the buffer once (probeVerdict) and applies that
//     verdict to every chunk;
//   - AlgoAdaptive decides per chunk (chunkVerdict) against wireBPS, the
//     wire bandwidth one chunk's transmission can count on in bytes/s (0 =
//     unknown), holding each chunk to the size threshold on its own.
func (c Codec) Planner(buf []byte, wireBPS float64) func(chunk []byte) Verdict {
	v, floor := VerdictRaw, c.minSize()
	switch {
	case !c.Enabled():
	case c.Algo == AlgoAdaptive:
		return func(chunk []byte) Verdict {
			if len(chunk) < floor {
				return VerdictRaw
			}
			return chunkVerdict(chunk, wireBPS)
		}
	case len(buf) < floor:
	case c.Algo == AlgoAuto:
		v = probeVerdict(buf)
	case c.Algo == AlgoZero:
		v = VerdictZero
	case c.Algo == AlgoDeflate:
		v = VerdictGzip
	}
	return func([]byte) Verdict { return v }
}

// probeVerdict is AlgoAuto's arm of Planner: one verdict for a whole buffer,
// from encoding samples of it, so the policy is applied once per buffer
// rather than per chunk. It is a pure function of the bytes.
//
// The probe samples the head, middle, and tail: a buffer whose head is dense
// but whose bulk is sparse (a header-prefixed matrix, a partly-initialised
// arena) must not ship entirely raw on the head's verdict alone — gzip's
// per-chunk expansion fallback already protects the dense fraction, while
// shipping a mostly-sparse buffer raw can cost a 10-20x larger transfer.
//
// The first sample gzip shrinks below SkipRatio decides between the two
// compressors: zero-run when its frame of that sample is no larger than
// gzip's (it is also several times cheaper to build and to read), gzip
// otherwise. A chunk of such a buffer that zero-run cannot shrink below
// SkipRatio gets its deflate frame anyway (AppendEncode), so what a
// zero-run verdict can ship beyond a gzip verdict is bounded by the chunks
// where both compress and gzip compresses better than it did on the sample.
func probeVerdict(buf []byte) Verdict {
	if len(buf) <= sampleSize {
		// Too small to probe meaningfully; the deflate frame's expansion
		// fallback is the decider.
		return VerdictGzip
	}
	mid := (len(buf) - sampleSize) / 2
	for _, at := range [...]int{0, mid, len(buf) - sampleSize} {
		sample := buf[at : at+sampleSize]
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

// IsCompressed reports whether a wire payload carries a compressed stream
// (deflate or zero-run).
func IsCompressed(wire []byte) bool {
	return len(wire) > 0 && (wire[0] == tagGzip || wire[0] == tagZero)
}

// frameBody is the one size probe: the frame-body bytes of sample encoded
// under v — exactly len(sample) for a raw frame, chosen (which needs no
// encode to say so) or fallen back to. A deflate stream is only counted; a
// zero-run frame is encoded into arena scratch.
func frameBody(sample []byte, v Verdict) (int, error) {
	switch v {
	case VerdictRaw:
		return len(sample), nil
	case VerdictGzip:
		return deflateSize(sample)
	}
	scratch := probeScratch(len(sample))
	defer arena.Put(scratch)
	enc, err := Codec{}.AppendEncode(scratch, sample, v)
	if err != nil {
		return 0, err
	}
	return len(enc) - 1, nil
}

// probe plans sample as one buffer with the size threshold lifted (a probe
// always compresses) and reports that verdict and its ratio.
func (c Codec) probe(sample []byte) (Verdict, float64, error) {
	if len(sample) == 0 {
		return VerdictRaw, 0, fmt.Errorf("xcompress: empty sample")
	}
	c.MinSize = 1
	v := c.Planner(sample, 0)(sample)
	n, err := frameBody(sample, v)
	return v, float64(n) / float64(len(sample)), err
}

// Ratio reports the wire bytes per raw byte this codec's policy gets on
// sample, the size threshold lifted: one verdict, and one encode unless the
// verdict is raw. It is the figure Measure reports, for callers that want no
// throughputs.
func (c Codec) Ratio(sample []byte) (float64, error) {
	_, r, err := c.probe(sample)
	return r, err
}

// Probe is the result of measuring gzip behaviour on a data sample. The
// calibration layer runs probes on really generated sparse and dense
// matrices and feeds the results into the virtual-time cost model, so the
// Fig. 5 sparse/dense contrast comes from genuine gzip measurements.
type Probe struct {
	Ratio            float64 // compressed size / raw size, in (0, 1]
	CompressBytesPS  float64 // compression throughput, raw bytes/s
	DecompressBytesP float64 // decompression throughput, raw bytes/s
	SampleSize       int     // raw sample length measured
}

// Measure reports Ratio's figure plus the encode and decode throughputs of
// the verdict behind it. The sample should be representative slices of the
// real payload; a few MiB is plenty. Each direction is timed three times
// after the ratio probe's warm-up encode and the fastest run wins: a single
// timing on a shared machine is noisy enough to flip downstream sparse/dense
// trade-offs.
func (c Codec) Measure(sample []byte) (Probe, error) {
	v, ratio, err := c.probe(sample)
	if err != nil {
		return Probe{}, err
	}
	enc := make([]byte, 0, len(sample)+1)
	back := make([]byte, len(sample))
	var bestComp, bestDecomp time.Duration
	for i := 0; i < 3; i++ {
		start := time.Now()
		enc, err = c.AppendEncode(enc[:0], sample, v)
		compDur := time.Since(start)
		if err != nil {
			return Probe{}, err
		}
		start = time.Now()
		err = DecodeInto(enc, back)
		decompDur := time.Since(start)
		if err != nil {
			return Probe{}, err
		}
		if !bytes.Equal(back, sample) {
			return Probe{}, fmt.Errorf("xcompress: probe round-trip mismatch")
		}
		if i == 0 || compDur < bestComp {
			bestComp = compDur
		}
		if i == 0 || decompDur < bestDecomp {
			bestDecomp = decompDur
		}
	}
	rate := func(d time.Duration) float64 {
		return float64(len(sample)) / max(d.Seconds(), 1e-9)
	}
	return Probe{
		Ratio:            ratio,
		CompressBytesPS:  rate(bestComp),
		DecompressBytesP: rate(bestDecomp),
		SampleSize:       len(sample),
	}, nil
}

// Effective applies the adaptive-skip policy to a probe: payloads whose
// measured ratio exceeds SkipRatio ship raw, so their effective behaviour
// is the identity codec (ratio 1, no codec time).
func (p Probe) Effective() Probe {
	if p.Ratio > SkipRatio {
		return Probe{Ratio: 1, SampleSize: p.SampleSize}
	}
	return p
}

// CompressedSize predicts the wire size of a raw payload under this probe.
func (p Probe) CompressedSize(raw int64) int64 {
	if raw <= 0 {
		return 0
	}
	out := int64(float64(raw) * p.Ratio)
	if out < 1 {
		out = 1
	}
	return out
}

// CompressTime predicts virtual compression time for raw bytes.
func (p Probe) CompressTime(raw int64) simtime.Duration {
	if raw <= 0 || p.CompressBytesPS <= 0 {
		return 0
	}
	return simtime.FromSeconds(float64(raw) / p.CompressBytesPS)
}

// DecompressTime predicts virtual decompression time for raw bytes.
func (p Probe) DecompressTime(raw int64) simtime.Duration {
	if raw <= 0 || p.DecompressBytesP <= 0 {
		return 0
	}
	return simtime.FromSeconds(float64(raw) / p.DecompressBytesP)
}
