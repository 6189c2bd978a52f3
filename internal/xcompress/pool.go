package xcompress

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// The hot encode/decode path of the chunked transfer engine runs once per
// 1 MiB chunk. gzip.NewWriterLevel allocates its deflate window and hash
// tables (~1.3 MB) on every call and gzip.NewReader its inflate window, so
// an unpooled path trades the streaming dataflow's barrier win for GC churn.
// Writers pool per level (Reset does not change the level); readers share
// one pool.

var gzWriterPools sync.Map // level -> *sync.Pool of *gzip.Writer

func getGzipWriter(level int, w io.Writer) (*gzip.Writer, error) {
	v, ok := gzWriterPools.Load(level)
	if !ok {
		v, _ = gzWriterPools.LoadOrStore(level, &sync.Pool{})
	}
	pool := v.(*sync.Pool)
	if zw, ok := pool.Get().(*gzip.Writer); ok {
		zw.Reset(w)
		return zw, nil
	}
	zw, err := gzip.NewWriterLevel(w, level)
	if err != nil {
		return nil, fmt.Errorf("xcompress: %w", err)
	}
	return zw, nil
}

func putGzipWriter(level int, zw *gzip.Writer) {
	v, ok := gzWriterPools.Load(level)
	if !ok {
		return
	}
	v.(*sync.Pool).Put(zw)
}

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

var gzReaderPool = sync.Pool{New: func() any { return new(pooledReader) }}

func getGzipReader(wire []byte) (*pooledReader, error) {
	pr := gzReaderPool.Get().(*pooledReader)
	pr.br.Reset(wire)
	if err := pr.zr.Reset(&pr.br); err != nil {
		gzReaderPool.Put(pr)
		return nil, fmt.Errorf("xcompress: %w", err)
	}
	// A wire frame carries exactly one gzip stream; multistream mode would
	// try to parse a second member at stream end (and allocate doing so).
	pr.zr.Multistream(false)
	return pr, nil
}

func putGzipReader(pr *pooledReader) {
	pr.br.Reset(nil)
	gzReaderPool.Put(pr)
}

// sliceWriter appends into a caller-owned slice, so pooled encode buffers
// can back a gzip stream without a bytes.Buffer allocation. Writers are
// pooled too: the gzip.Writer holds its io.Writer, so a per-call &sliceWriter
// would escape to the heap and cost one allocation per chunk.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

var sliceWriters = sync.Pool{New: func() any { return new(sliceWriter) }}

// deflateFrameCodec is the gzip/deflate codec behind tagGzip.
type deflateFrameCodec struct{}

func (deflateFrameCodec) Name() string { return "deflate" }
func (deflateFrameCodec) Tag() byte    { return tagGzip }
func (deflateFrameCodec) Append(dst, src []byte, level int) ([]byte, error) {
	if level == 0 {
		level = gzip.BestSpeed
	}
	start := len(dst)
	sw := sliceWriters.Get().(*sliceWriter)
	sw.b = append(dst, tagGzip)
	zw, err := getGzipWriter(level, sw)
	if err != nil {
		sw.b = nil
		sliceWriters.Put(sw)
		return nil, err
	}
	_, werr := zw.Write(src)
	cerr := zw.Close()
	putGzipWriter(level, zw)
	out := sw.b
	sw.b = nil
	sliceWriters.Put(sw)
	if werr != nil {
		return nil, fmt.Errorf("xcompress: %w", werr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("xcompress: %w", cerr)
	}
	if len(out)-start > len(src)+1 {
		// gzip expanded the payload (dense random floats can): ship
		// raw instead, so the wire size never exceeds len(src)+1.
		out = append(out[:start], tagRaw)
		return append(out, src...), nil
	}
	return out, nil
}
func (deflateFrameCodec) DecodeInto(body, dst []byte) error {
	pr, err := getGzipReader(body)
	if err != nil {
		return err
	}
	defer putGzipReader(pr)
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
func (deflateFrameCodec) Decode(body []byte) ([]byte, error) {
	pr, err := getGzipReader(body)
	if err != nil {
		return nil, err
	}
	defer putGzipReader(pr)
	out, err := io.ReadAll(&pr.zr)
	if err != nil {
		return nil, fmt.Errorf("xcompress: %w", err)
	}
	return out, nil
}

// AppendEncode appends buf's wire frame to dst (reusing dst's capacity, so a
// pooled scratch slice makes the hot path allocation-free once warm) and
// returns the extended slice. The codec decision must be supplied by the
// caller — chunked transfers probe it per buffer with ProbeVerdict or per
// chunk with ChunkVerdict; VerdictAuto falls back to Encode's own probe and
// allocates.
func (c Codec) AppendEncode(dst, buf []byte, v Verdict) ([]byte, error) {
	switch v {
	case VerdictRaw:
		return rawFrameCodec{}.Append(dst, buf, 0)
	case VerdictGzip:
		return deflateFrameCodec{}.Append(dst, buf, c.level())
	case VerdictFast:
		return fastFrameCodec{}.Append(dst, buf, 0)
	default:
		enc, err := c.Encode(buf)
		if err != nil {
			return nil, err
		}
		if cap(dst) == 0 {
			return enc, nil // nothing to extend or reuse: Encode's own buffer is the result
		}
		return append(dst, enc...), nil
	}
}

// DecodeInto reverses Encode directly into dst, which must be exactly the
// decoded payload's length — the transfer engine decodes each chunk into its
// precomputed window of the assembled buffer, avoiding Decode's allocation
// and the follow-up copy. Dispatch goes through the Frame registry, so every
// registered codec decodes here. On error dst's contents are unspecified (a
// failed attempt may have partially written its window); callers retrying
// must treat only a nil return as completion.
func DecodeInto(wire, dst []byte) error {
	if len(wire) == 0 {
		return fmt.Errorf("xcompress: empty payload")
	}
	if wire[0] == TagChunked {
		return fmt.Errorf("xcompress: payload is a chunked manifest; fetch it via chunkio.DownloadInto")
	}
	f := frames[wire[0]]
	if f == nil {
		return fmt.Errorf("xcompress: unknown tag %d", wire[0])
	}
	return f.DecodeInto(wire[1:], dst)
}
