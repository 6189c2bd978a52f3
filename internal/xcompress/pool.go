package xcompress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"slices"

	"ompcloud/internal/arena"
)

// The frame engine: AppendEncode is the only code that builds a compressed
// wire frame and DecodeInto the only code that decodes one, over three fixed
// codecs (raw, deflate, zero-run) told apart by the frame's first byte.
// Frame and FrameReader are their stream faces: a raw frame is the tag and
// the payload as is, so it goes to and from a stream with no copy.
//
// The hot path runs once per 1 MiB chunk of the chunked transfer engine.
// gzip.NewWriterLevel allocates its deflate window and hash tables (~1.3 MB)
// on every call and gzip.NewReader its inflate window, so an unpooled path
// trades the streaming dataflow's barrier win for GC churn: writers, readers
// and probe scratch are recycled through the arena, which keeps them across
// the collections that fall between two transfers.

// deflateLevel favours throughput over ratio. Offloading is latency-bound:
// the buffer cannot leave the host until gzip finishes, and at default
// compression gzip is slower than a fast WAN — compressing would *lengthen*
// the upload.
const deflateLevel = gzip.BestSpeed

// pooledWriter bundles the gzip writer with the caller-owned slice it appends
// into, so a recycled encode buffer backs the stream with no per-chunk
// allocation (the gzip.Writer holds its io.Writer, so a per-call sink would
// escape to the heap). A size probe points the writer at n instead, which
// only counts.
type pooledWriter struct {
	b  []byte
	n  byteCount
	zw *gzip.Writer
}

func (w *pooledWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// byteCount is a writer that keeps only the number of bytes written to it.
type byteCount int

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

var gzWriterPool = arena.Pool[pooledWriter]{New: func() *pooledWriter {
	w := new(pooledWriter)
	w.zw, _ = gzip.NewWriterLevel(w, deflateLevel) // a constant, valid level
	return w
}}

// pooledReader bundles the gzip reader with its byte source so one pool
// entry covers both allocations of a decode. The one-byte scratch for the
// end-of-stream check lives here too: a stack array passed through the
// reader's io.Reader interface would be forced to escape, costing one heap
// allocation per decode.
type pooledReader struct {
	br  bytes.Reader
	zr  gzip.Reader
	one [1]byte
}

var gzReaderPool = arena.Pool[pooledReader]{New: func() *pooledReader { return new(pooledReader) }}

// probeScratch draws the size probes' output scratch (frameBody, and the
// adaptive verdict's zero-run trial) from the arena, room for an n-byte
// sample's frame, so a verdict allocates nothing once warm. It goes back
// with arena.Put.
func probeScratch(n int) []byte { return arena.Scratch(n + n/8 + 256) }

// AppendEncode appends buf's wire frame — a one-byte tag, then the raw bytes,
// a gzip stream or zero-run sequences — to dst (reusing dst's capacity, so a
// recycled scratch slice makes the hot path allocation-free once warm) and
// returns the extended slice. The verdict is the caller's, from Planner;
// VerdictAuto plans buf on its own. A compressed frame that would exceed
// len(buf)+1 bytes falls back to raw.
func (c Codec) AppendEncode(dst, buf []byte, v Verdict) ([]byte, error) {
	if v == VerdictAuto {
		v = c.Planner(buf, 0)(buf)
	}
	switch v {
	case VerdictGzip:
		return appendDeflate(dst, buf)
	case VerdictZero:
		if out, ok := appendZero(dst, buf); ok {
			return out, nil
		}
		return appendDeflate(dst, buf)
	}
	return appendRaw(dst, buf), nil
}

// rawHead is every raw frame's head: the tag, with the payload after it.
var rawHead = []byte{tagRaw}

// Frame gives buf's wire frame under v as two parts that go on the wire
// back to back, head then body. A raw verdict's frame is the tag and buf
// itself: head is a shared one-byte slice the caller must not modify and
// body is buf, so no payload byte is copied. Any other verdict's frame is
// AppendEncode's, appended to dst, and body is empty.
func (c Codec) Frame(dst, buf []byte, v Verdict) (head, body []byte, err error) {
	if v == VerdictRaw {
		return rawHead[:1:1], buf, nil
	}
	head, err = c.AppendEncode(dst, buf, v)
	return head, nil, err
}

// Encode returns buf's wire frame in a fresh slice, planned on its own.
func (c Codec) Encode(buf []byte) ([]byte, error) {
	return c.AppendEncode(nil, buf, VerdictAuto)
}

func appendRaw(dst, src []byte) []byte {
	dst = append(dst, tagRaw)
	return append(dst, src...)
}

func appendDeflate(dst, src []byte) ([]byte, error) {
	if cap(dst) == 0 {
		// Handed nothing to reuse: size for a typical compressible
		// payload up front, so one big frame does not grow by doubling.
		dst = make([]byte, 0, len(src)/2+64)
	}
	start := len(dst)
	w := gzWriterPool.Get()
	w.b = append(dst, tagGzip)
	w.zw.Reset(w)
	_, err := w.zw.Write(src)
	if cerr := w.zw.Close(); err == nil {
		err = cerr
	}
	out := w.b
	w.b = nil
	gzWriterPool.Put(w)
	if err != nil {
		return nil, fmt.Errorf("xcompress: %w", err)
	}
	if len(out)-start > len(src)+1 {
		// gzip expanded the payload (dense random floats can): ship raw
		// instead, so the wire size never exceeds len(src)+1.
		return appendRaw(out[:start], src), nil
	}
	return out, nil
}

// deflateSize reports the length of src's deflate frame body — the gzip
// stream, or len(src) where appendDeflate falls back to raw — writing the
// stream nowhere, so a size probe needs no scratch.
func deflateSize(src []byte) (int, error) {
	w := gzWriterPool.Get()
	w.n = 0
	w.zw.Reset(&w.n)
	_, err := w.zw.Write(src)
	if cerr := w.zw.Close(); err == nil {
		err = cerr
	}
	n := int(w.n)
	gzWriterPool.Put(w)
	if err != nil {
		return 0, fmt.Errorf("xcompress: %w", err)
	}
	return min(n, len(src)), nil
}

// DecodeInto reverses AppendEncode directly into dst, which must be exactly
// the decoded payload's length — the transfer engine decodes each chunk into
// its precomputed window of the assembled buffer. It accepts frames produced
// under any codec configuration: the tag byte is self-describing. On error
// dst's contents are unspecified (a failed attempt may have partially
// written its window); callers retrying must treat only a nil return as
// completion.
func DecodeInto(wire, dst []byte) error {
	if len(wire) == 0 {
		return fmt.Errorf("xcompress: empty payload")
	}
	body := wire[1:]
	switch wire[0] {
	case tagRaw:
		if len(body) != len(dst) {
			return fmt.Errorf("xcompress: raw payload is %d bytes, want %d", len(body), len(dst))
		}
		copy(dst, body)
		return nil
	case tagGzip:
		return decodeDeflate(body, dst)
	case tagZero:
		return decodeZero(body, dst)
	case TagChunked:
		return fmt.Errorf("xcompress: payload is a chunked manifest; fetch it via chunkio.DownloadInto")
	}
	return fmt.Errorf("xcompress: unknown tag %d", wire[0])
}

func decodeDeflate(body, dst []byte) error {
	pr := gzReaderPool.Get()
	defer func() {
		pr.br.Reset(nil)
		gzReaderPool.Put(pr)
	}()
	pr.br.Reset(body)
	if err := pr.zr.Reset(&pr.br); err != nil {
		return fmt.Errorf("xcompress: %w", err)
	}
	// A wire frame carries exactly one gzip stream; multistream mode would
	// try to parse a second member at stream end (and allocate doing so).
	pr.zr.Multistream(false)
	if _, err := io.ReadFull(&pr.zr, dst); err != nil {
		return fmt.Errorf("xcompress: %w", err)
	}
	// The stream must end exactly at len(dst) bytes.
	if n, err := pr.zr.Read(pr.one[:]); n != 0 || err != io.EOF {
		if err == nil || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("stream longer than %d bytes", len(dst))
		}
		return fmt.Errorf("xcompress: %w", err)
	}
	return nil
}

// FrameReader reads wire frames off a stream into their payloads'
// destinations, ending exactly as DecodeInto would on the same bytes. A raw
// frame whose body is its destination's length is read straight into the
// destination. Any other frame is read whole into arena scratch and decoded
// in a second step, Decode, which the caller takes once it has let the
// stream go. The zero value is ready for Reset.
type FrameReader struct {
	dst   []byte
	tag   [1]byte
	frame []byte // what Receive set aside for Decode
	// scratch is the arena buffer Receive drew for frame; frame is in it
	// unless the frame outgrew it.
	scratch []byte
}

// eagerFrame is the largest frame length Receive sizes its scratch for
// before the bytes arrive; past it the scratch grows no faster than they do,
// so a length no stream backs claims no memory. A chunk frame is at most
// ~1.13 MiB.
const eagerFrame = 4 << 20

// Reset aims the reader at dst — the next payload, which must be exactly
// its decoded length — and drops whatever a failed attempt set aside.
func (f *FrameReader) Reset(dst []byte) {
	f.release()
	f.dst = dst
}

// Receive reads one n-byte frame from r. On error dst's contents are
// unspecified, as after a failed DecodeInto, and nothing is set aside.
func (f *FrameReader) Receive(n int64, r io.Reader) error {
	f.release()
	var head []byte
	if n == int64(len(f.dst))+1 {
		if _, err := io.ReadFull(r, f.tag[:]); err != nil {
			return err
		}
		if f.tag[0] == tagRaw {
			_, err := io.ReadFull(r, f.dst)
			return err
		}
		head, n = f.tag[:], n-1
	}
	f.scratch = arena.Scratch(int(min(n+int64(len(head)), eagerFrame)))
	var err error
	f.frame, err = appendFull(append(f.scratch, head...), r, n)
	if err != nil {
		f.release()
	}
	return err
}

// Pending reports whether Receive set a frame aside for Decode.
func (f *FrameReader) Pending() bool { return f.frame != nil }

// Decode decodes the frame Receive set aside into dst (DecodeInto) and
// gives its scratch back to the arena.
func (f *FrameReader) Decode() error {
	if f.frame == nil {
		return nil
	}
	err := DecodeInto(f.frame, f.dst)
	f.release()
	return err
}

func (f *FrameReader) release() {
	if f.frame != nil {
		arena.Put(f.scratch)
		f.frame, f.scratch = nil, nil
	}
}

// appendFull appends the next n bytes of r to b, sizing b up front only as
// far as eagerFrame and beyond it doubling what has arrived.
func appendFull(b []byte, r io.Reader, n int64) ([]byte, error) {
	for n > 0 {
		if len(b) == cap(b) {
			b = slices.Grow(b, int(min(n, max(eagerFrame, int64(len(b))))))
		}
		m := int(min(n, int64(cap(b)-len(b))))
		k, err := io.ReadFull(r, b[len(b):len(b)+m])
		b = b[:len(b)+k]
		if err != nil {
			return b, err
		}
		n -= int64(m)
	}
	return b, nil
}
