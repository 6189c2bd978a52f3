// Package chunkio is the chunked, pipelined host<->cloud transfer engine.
//
// The paper's §III.A transfer policy parallelizes only *across* offloaded
// buffers — each datum gets one transmission thread — so a single large
// matrix is gzip-compressed on one core and fully encoded before its first
// byte reaches cloud storage. Figure 4's breakdown shows exactly that leg
// (upload, gzip, download) dominating data-heavy kernels. This package
// parallelizes *within* a buffer: the payload is split into chunks (fixed
// size, or content-defined cuts when Options.CDC is set), each chunk gets
// its own codec verdict from the configured policy (one probed verdict per
// buffer for the legacy AlgoAuto codec, a per-chunk adaptive choice for
// AlgoAdaptive), and a pool of workers encodes and stores the chunks
// concurrently, so compression of chunk k+1 overlaps the upload of chunk k.
// DownloadInto mirrors it: concurrent Get + decompress into the caller's
// buffer.
// One engine (pipeState, stream.go) runs every entry point's chunks.
//
// On the store, a chunked object is a manifest at the object's own key —
// a one-byte xcompress.TagChunked frame followed by JSON — plus one part
// object per chunk at sibling keys ("<key>.00007.part", siblings rather
// than children so DiskStore never needs a file and a directory with the
// same name). Small payloads (at most one chunk) are stored as a plain
// single object in the legacy xcompress frame, so readers discover the
// layout from the first byte with a single round trip and pre-engine
// objects remain readable.
package chunkio

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// DefaultChunkSize is the default transfer chunk: 1 MiB is large enough to
// keep gzip efficient (window >> chunk overhead) and small enough that a
// pipeline of a few chunks per core bounds memory and starts the first
// upload almost immediately.
const DefaultChunkSize = 1 << 20

// manifestVersion guards the on-store manifest layout.
const manifestVersion = 1

// Options configures one transfer. The zero value is usable: default codec,
// 1 MiB chunks, one chunk worker per machine core.
type Options struct {
	// Codec is the compression policy applied per chunk.
	Codec xcompress.Codec
	// ChunkSize splits payloads larger than this into parts. 0 means
	// DefaultChunkSize; negative disables chunking entirely (the whole
	// payload is one sequentially-encoded object — the paper's original
	// single-stream policy, kept for ablations and comparison benches).
	ChunkSize int
	// Parallel bounds the concurrent chunk workers; each encodes and PUTs,
	// or GETs and decodes, one chunk at a time, so it also caps
	// encoded-but-unsent memory. 0 means all machine cores.
	Parallel int
	// CDC switches Upload and Pipe from fixed-size cuts to Gear
	// content-defined chunking with ChunkSize as the target average (see
	// cdc.go): chunk boundaries follow content, so shifted or partially
	// edited buffers keep most chunk hashes stable and the cross-session
	// dedup index keeps hitting. OutStream ignores it (the producer
	// streams, so content cuts cannot be placed ahead of the data) and
	// keeps fixed cuts.
	CDC bool
	// WireBytesPerS tells the adaptive codec (xcompress.AlgoAdaptive) how
	// fast the store link is, in wire bytes per second for the whole
	// transfer; each parallel worker is modelled with its share. 0 means
	// unknown, which the verdict treats as codec-bound (an effectively
	// infinite wire).
	WireBytesPerS float64
	// Index, when non-nil, stores parts content-addressed under ChunkKey
	// instead of "<key>.NNNNN.part": a chunk the index already holds (and
	// its store still does) is not re-encoded or re-sent, so a
	// partially-changed buffer only resends its dirty chunks, and every
	// part stored is remembered.
	Index *Index
	// OnManifest is invoked after a multipart upload commits its manifest
	// frame, handing the caller the exact bytes just written. A reader on
	// the same side of the WAN can then pass them back via HaveObject and
	// skip re-fetching metadata it authored. Never invoked for
	// single-object layouts: there the frame is the payload itself, and
	// skipping its GET would skip the actual data transfer.
	OnManifest func(key string, frame []byte)
	// HaveObject, when non-nil, is consulted before the root GET of a
	// DownloadInto. If it returns a chunked manifest frame for the key, the
	// manifest round trip is skipped (DownloadResult.RootCached reports
	// this); non-manifest or unparseable frames fall back to the store.
	HaveObject func(key string) ([]byte, bool)
	// OnChunk is invoked by DownloadInto after each chunk of a multipart
	// object has been fetched, decoded, and written to its [lo, hi)
	// window of the result buffer. Chunks complete out of order; the
	// streaming scheduler uses this to release tiles whose input windows
	// are fully resident. Must be safe for concurrent calls.
	OnChunk func(lo, hi int64)

	// Retry re-attempts failed store operations at chunk granularity: a
	// failed part PUT resends just that part's already-encoded bytes, a
	// failed or corrupted part GET re-fetches and re-decodes just that
	// part, and the manifest read/write retries on its own. Because part
	// PUTs overwrite whole objects and GET attempts decode into private
	// buffers, every retry unit is idempotent. The zero value performs a
	// single attempt (the pre-resilience behaviour). Errors classified
	// resilience.Permanent — missing keys, manifest version mismatches,
	// local encode failures — stop immediately.
	Retry resilience.Policy

	// Ctx, when non-nil, cancels the transfer: workers stop launching
	// chunks, retry backoffs return promptly, and the whole call fails with
	// a permanent error wrapping the context's cause. nil means
	// uncancellable (the pre-guard behaviour).
	Ctx context.Context
	// PutTimeout and GetTimeout bound a single store attempt per leg; a
	// stuck attempt is abandoned and retried as a transient DeadlineError.
	// 0 disables the guard for that leg (and keeps the transfer path free
	// of per-op goroutines and timers).
	PutTimeout time.Duration
	GetTimeout time.Duration
	// HedgeDelay launches a backup GET if the primary has not returned
	// within the delay; first result wins, the loser is drained. 0 disables
	// hedging. Safe because GETs are read-only and attempts decode into
	// private buffers.
	HedgeDelay time.Duration
	// Stats, when non-nil, accrues deadline/hedge engagement counts for
	// this transfer on top of the process-wide metrics counters.
	Stats *TransferStats

	// MetricDevice, when non-empty, additionally records every latency
	// histogram observation (chunk PUT/GET, compress) under a
	// device-keyed metric name (span.DevKey), so concurrent transfers on
	// behalf of different devices stay separable: the multi-device
	// splitter reads per-device rates, and per-device adaptive deadlines
	// stop cross-contaminating when two cloud plugins are live. The
	// unkeyed base histograms keep receiving every sample as the
	// all-device aggregate.
	MetricDevice string
}

// ctxErr reports the configured context's cancellation without blocking;
// nil-context safe.
func (o Options) ctxErr() error {
	if o.Ctx == nil {
		return nil
	}
	select {
	case <-o.Ctx.Done():
		return o.Ctx.Err()
	default:
		return nil
	}
}

func (o Options) chunkSize() int {
	switch {
	case o.ChunkSize == 0:
		return DefaultChunkSize
	case o.ChunkSize < 0:
		return math.MaxInt // unchunked: everything fits one "chunk"
	default:
		return o.ChunkSize
	}
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// wireShare is the wire bandwidth one parallel worker can count on: the
// transfer's total rate divided evenly across workers. 0 when unknown.
func (o Options) wireShare() float64 {
	if o.WireBytesPerS <= 0 {
		return 0
	}
	return o.WireBytesPerS / float64(o.parallel())
}

// chunkEntry describes one part in the manifest.
type chunkEntry struct {
	Key  string `json:"key"`
	Raw  int64  `json:"raw"`
	Wire int64  `json:"wire"`
}

// manifest is the JSON body of a chunked object's root frame.
type manifest struct {
	Version   int          `json:"version"`
	ChunkSize int          `json:"chunk_size"`
	RawSize   int64        `json:"raw_size"`
	Chunks    []chunkEntry `json:"chunks"`
}

// partKey names chunk i of a multipart object. Parts are siblings of the
// manifest key ("<key>.00007.part"), never children, so file-backed stores
// can keep one flat file per key.
func partKey(key string, i int) string { return fmt.Sprintf("%s.%05d.part", key, i) }

// encBufs pools per-chunk encode scratch. Stores copy on Put — MemStore into
// the stored object, RemoteStore onto the socket; only storage.Server hands a
// buffer it read itself to the store uncopied — so a buffer is reusable the
// moment its PUT returns; without the pool every compressed chunk of every
// transfer allocates ~1 MiB of garbage (xcompress pools the deflate state,
// this pools the output it writes into). A raw chunk borrows none: its frame
// is its tag and its window of the source (pipeState.encode).
var encBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, DefaultChunkSize+DefaultChunkSize/8+64)
	return &b
}}

// wireBufs pools download-side wire scratch: the encoded bytes fetched from
// the store before decoding, on every read that does not stream (getUnit).
// The upload mirror is encBufs; without this pool every such chunk GET
// materializes ~1 MiB of garbage through storage.Get even though the bytes
// are dead the moment DecodeInto returns. The pool only pays off on a store
// that reads into the buffer it is handed (storage.AppendGetter): MemStore,
// DiskStore, RemoteStore, and Metered or PrefixStore over one of them.
// Behind WithFaults or Throttled, which must see every Get, each
// chunk still costs the Get's copy.
var wireBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, DefaultChunkSize+DefaultChunkSize/8+64)
	return &b
}}

// histPair fans one latency observation into the base histogram and, when a
// device is configured, its device-keyed variant (span.DevKey). The base
// name stays the all-device aggregate so existing consumers keep working.
type histPair struct {
	base *span.Histogram
	dev  *span.Histogram // nil without Options.MetricDevice
}

func newHistPair(name, dev string) histPair {
	p := histPair{base: span.Metrics().Histogram(name)}
	if dev != "" {
		p.dev = span.Metrics().Histogram(span.DevKey(name, dev))
	}
	return p
}

func (p histPair) Observe(v float64) {
	p.base.Observe(v)
	if p.dev != nil {
		p.dev.Observe(v)
	}
}

// putUnit is one store-writer's retry machinery, allocated once per worker.
// resilience.Policy.Do takes a closure; building that closure inside the
// per-chunk loop makes it escape and allocate every chunk, so the unit binds
// one op over mutable key/data fields instead.
type putUnit struct {
	st      storage.Store
	o       *Options
	retries *atomic.Int64
	hist    histPair
	op      func() error

	key        string
	head, body []byte
}

func newPutUnit(st storage.Store, o *Options, retries *atomic.Int64) *putUnit {
	u := &putUnit{st: st, o: o, retries: retries, hist: newHistPair("chunkio.put.seconds", o.MetricDevice)}
	u.op = func() error { return guardedPut(u.st, u.key, u.head, u.body, u.o.PutTimeout, u.o.Stats) }
	return u
}

// put writes one object, head followed by body (xcompress.Codec.Frame's
// parts), with the configured retry policy; a re-sent PUT overwrites the
// whole object, so retrying is idempotent. Every attempt set is one
// "chunk.put" span and one latency observation.
func (u *putUnit) put(key string, head, body []byte) error {
	if u.o.PutTimeout > 0 {
		// A deadline-abandoned attempt keeps reading its parts after put
		// returns, and the caller reuses them the moment we do — head is
		// encBufs scratch, body a window of a live buffer — so the guard
		// pays one private copy of the frame per object. The deadline-off
		// path (the default) copies neither.
		head, body = append(append(make([]byte, 0, len(head)+len(body)), head...), body...), nil
	}
	u.key, u.head, u.body = key, head, body
	sc := span.Start("chunk.put", "chunk", 0)
	sc.SetAttr("key", key)
	start := time.Now()
	out, err := u.o.Retry.DoCtx(u.o.Ctx, u.op)
	u.hist.Observe(time.Since(start).Seconds())
	u.retries.Add(int64(out.Attempts - 1))
	if out.Attempts > 1 {
		sc.SetAttr("retries", strconv.Itoa(out.Attempts-1))
	}
	sc.End()
	u.key, u.head, u.body = "", nil, nil
	return err
}

// getUnit is one download worker's retry machinery, allocated once per
// worker for the same reason as putUnit. Each fetch is one retry unit: move
// the frame into the chunk's disjoint destination window, then, for a part
// stored under a chunk key ("cache/c/<sha256>"), check the decoded bytes
// against the hash the key names. That closes the raw-frame integrity hole
// (deflate frames carry a CRC, raw frames nothing) and guards reused cache
// chunks against bit rot. A mismatch is classified transient — the store's
// authoritative copy may be intact — so the policy re-fetches and fully
// overwrites the window.
//
// A store that streams (storage.StreamGetter) hands the frame to an
// xcompress.FrameReader as it arrives: a raw frame's body lands in the
// window with no copy, any other frame is decoded once the connection is
// back in its pool. Any other store, and any guarded attempt — which must
// never write where the caller can see (netguard.go) — pulls the frame into
// pooled scratch and decodes it from there.
type getUnit struct {
	st      storage.Store
	o       *Options
	retries *atomic.Int64
	hist    histPair
	op      func() error
	fr      xcompress.FrameReader
	recv    func(size int64, r io.Reader) error // fr.Receive, bound once
	stream  bool                                // try storage.GetStream first

	key  string
	dst  []byte
	wire int64         // wire size of the last successful attempt
	dur  time.Duration // decode time of the last attempt
}

func newGetUnit(st storage.Store, o *Options, retries *atomic.Int64) *getUnit {
	u := &getUnit{st: st, o: o, retries: retries, hist: newHistPair("chunkio.get.seconds", o.MetricDevice)}
	u.op = u.fetchOnce
	u.recv = u.fr.Receive
	u.stream = o.GetTimeout <= 0 && o.HedgeDelay <= 0
	return u
}

func (u *getUnit) fetchOnce() error {
	wire, err := u.receive()
	if err != nil {
		return err
	}
	if want, ok := chunkSumOf(u.key); ok && sha256.Sum256(u.dst) != want {
		return corruptErr(fmt.Errorf("chunkio: %s decoded bytes fail their content hash", u.key))
	}
	u.wire = wire
	return nil
}

// receive moves one attempt's frame into u.dst and reports its wire size.
// Only codec work is timed (u.dur): a raw frame has none, whichever way it
// arrived.
func (u *getUnit) receive() (int64, error) {
	u.dur = 0
	if u.stream {
		u.fr.Reset(u.dst)
		wire, err := storage.GetStream(u.st, u.key, u.recv)
		if !errors.Is(err, errors.ErrUnsupported) {
			if err != nil {
				return 0, classifyGetErr(fmt.Errorf("chunkio: fetching %s: %w", u.key, err))
			}
			if u.fr.Pending() {
				start := time.Now()
				err = u.fr.Decode()
				u.dur = time.Since(start)
			}
			if err != nil {
				return 0, corruptErr(fmt.Errorf("chunkio: decoding %s: %w", u.key, err))
			}
			return wire, nil
		}
		u.stream = false // this store cannot stream: copy from here on
	}
	enc, bp, err := guardedGet(u.st, u.key, u.o.GetTimeout, u.o.HedgeDelay, u.o.Stats)
	if err != nil {
		return 0, classifyGetErr(fmt.Errorf("chunkio: fetching %s: %w", u.key, err))
	}
	start := time.Now()
	err = xcompress.DecodeInto(enc, u.dst)
	if xcompress.IsCompressed(enc) {
		u.dur = time.Since(start)
	}
	wire := int64(len(enc))
	wireBufs.Put(bp) // enc aliases the pooled buffer; dead once decoded
	if err != nil {
		return 0, corruptErr(fmt.Errorf("chunkio: decoding %s: %w", u.key, err))
	}
	return wire, nil
}

// fetch retrieves key and decodes it into dst, with retries, spans and
// latency accounting. Returns the wire size and decode time on success.
func (u *getUnit) fetch(key string, dst []byte) (int64, time.Duration, error) {
	u.key, u.dst = key, dst
	u.wire, u.dur = 0, 0
	sc := span.Start("chunk.get", "chunk", 0)
	sc.SetAttr("key", key)
	start := time.Now()
	out, err := u.o.Retry.DoCtx(u.o.Ctx, u.op)
	u.hist.Observe(time.Since(start).Seconds())
	u.retries.Add(int64(out.Attempts - 1))
	if out.Attempts > 1 {
		sc.SetAttr("retries", strconv.Itoa(out.Attempts-1))
	}
	sc.End()
	u.key, u.dst = "", nil
	return u.wire, u.dur, err
}

// classifyGetErr routes a store read error through the resilience taxonomy:
// a missing key is permanent (re-reading will not materialize it; recovery
// belongs to a higher layer, e.g. re-running the job), anything else keeps
// its own classification (injected faults arrive pre-marked transient) or
// stays unknown-and-retriable.
func classifyGetErr(err error) error {
	if errors.Is(err, storage.ErrNotFound) && resilience.ClassOf(err) == resilience.Unknown {
		return resilience.MarkPermanent(err)
	}
	return err
}

// corruptErr marks a payload-integrity failure (bad frame, short data, bit
// rot) transient: the store's authoritative copy may well be intact, so a
// re-fetch is worth the attempt.
func corruptErr(err error) error { return resilience.MarkTransient(err) }

// UploadResult reports what one Upload moved and what it cost.
type UploadResult struct {
	// TotalWire is the full wire volume of the stored object: manifest (if
	// any) plus every part, reused or not. This is what a reader fetches.
	TotalWire int64
	// SentWire is the wire volume actually written by this call — dirty
	// parts plus the manifest; chunks skipped via Have are absent.
	SentWire int64
	// Chunks and Reused count the object's parts and how many were
	// already present (chunk-cache hits).
	Chunks, Reused int
	// ReusedRaw is the raw byte volume covered by reused chunks — the
	// payload bytes dedup kept off the wire.
	ReusedRaw int64
	// CompressWall is the modelled wall time of the parallel compress
	// stage: total compress CPU divided by the worker count, floored at
	// the slowest single chunk. It deliberately excludes store
	// backpressure, so virtual-time accounting can overlap it with the
	// wire leg.
	CompressWall time.Duration
	// CompressCPU is the summed per-chunk compression time.
	CompressCPU time.Duration
	// Retries counts store-operation re-attempts this upload needed
	// (0 on a fault-free path or with retries disabled).
	Retries int
}

// wallOf models the wall time of a perfectly parallel stage from per-item
// CPU times: work-conservation (sum/width) floored at the critical path
// (slowest single item).
func wallOf(durs []time.Duration, width int) (wall, cpu time.Duration) {
	var max time.Duration
	for _, d := range durs {
		cpu += d
		if d > max {
			max = d
		}
	}
	if width < 1 {
		width = 1
	}
	wall = cpu / time.Duration(width)
	if wall < max {
		wall = max
	}
	return wall, cpu
}

// DownloadResult reports what one DownloadInto moved and what it cost.
type DownloadResult struct {
	// WireBytes is the fetched wire volume (manifest plus parts, or the
	// single object).
	WireBytes int64
	// Chunks counts fetched parts (1 for a single object).
	Chunks int
	// DecompressWall models the wall time of the parallel decode stage
	// (see UploadResult.CompressWall).
	DecompressWall time.Duration
	// DecompressCPU is the summed per-chunk decode time.
	DecompressCPU time.Duration
	// Retries counts store-operation re-attempts this download needed.
	Retries int
	// RootCached reports that the manifest came from Options.HaveObject,
	// avoiding the root GET round trip (WireBytes excludes it).
	RootCached bool
}

// DownloadInto fetches the object stored under key into dst, whose length
// must equal the object's raw size, transparently handling both layouts: a
// legacy single xcompress frame, or a chunked manifest whose parts are
// fetched and decompressed concurrently. The destination is the caller's for
// two reasons. The streaming scheduler needs it fixed up front:
// Options.OnChunk windows refer to a buffer that consumers are already
// allowed to read behind the readiness frontier. And the caller, not a
// stored number, states how much memory a download may claim: an object
// that disagrees with len(dst) is refused, and nothing is sized from what a
// manifest says beyond the manifest's own length.
func DownloadInto(st storage.Store, key string, dst []byte, o Options) (*DownloadResult, error) {
	// The root object's fetch, frame discrimination and validation form
	// one retry unit: a truncated or bit-flipped read (single frame or
	// manifest alike) re-fetches the object, because the store's
	// authoritative copy may be intact.
	var (
		m          manifest
		chunked    bool
		rootWire   int64
		rootDur    time.Duration
		cuts       []int
		rootCached bool
		retries    int
	)
	parseRoot := func(obj []byte) error {
		if len(obj) == 0 || obj[0] != xcompress.TagChunked {
			chunked = false
			start := time.Now()
			err := xcompress.DecodeInto(obj, dst)
			rootDur = 0
			if xcompress.IsCompressed(obj) {
				rootDur = time.Since(start) // codec work only, as in getUnit
			}
			if err != nil {
				return corruptErr(fmt.Errorf("chunkio: decoding %s: %w", key, err))
			}
			return nil
		}
		chunked = true
		m = manifest{}
		if err := json.Unmarshal(obj[1:], &m); err != nil {
			return corruptErr(fmt.Errorf("chunkio: manifest %s: %w", key, err))
		}
		if m.Version != manifestVersion {
			// A structurally valid manifest from a different engine
			// version: re-reading cannot change it.
			return resilience.MarkPermanent(fmt.Errorf("chunkio: manifest %s has version %d, want %d", key, m.Version, manifestVersion))
		}
		cuts = make([]int, len(m.Chunks))
		var off int64
		for i, e := range m.Chunks {
			// Compared against what is left, never summed first: chunk sizes
			// are stored numbers, and a sum may wrap back into range.
			if e.Raw < 0 || e.Raw > m.RawSize-off {
				return corruptErr(fmt.Errorf("chunkio: manifest %s: chunk %d claims %d of the %d bytes left", key, i, e.Raw, m.RawSize-off))
			}
			off += e.Raw
			cuts[i] = int(off)
		}
		if off != m.RawSize {
			return corruptErr(fmt.Errorf("chunkio: manifest %s: chunks sum to %d bytes, want %d", key, off, m.RawSize))
		}
		if m.RawSize != int64(len(dst)) {
			// A consistent manifest of another size: re-reading cannot
			// change it.
			return resilience.MarkPermanent(fmt.Errorf("chunkio: %s holds %d raw bytes, destination wants %d", key, m.RawSize, len(dst)))
		}
		return nil
	}
	// A manifest this process authored (the offload output leg keeps the
	// frames it just PUT) need not be re-fetched: parse the local copy and
	// skip the round trip. Only chunked frames qualify — a single-object frame IS
	// the payload, and its GET is the actual data transfer. Any parse
	// failure falls through to the authoritative store copy.
	if o.HaveObject != nil {
		if frame, ok := o.HaveObject(key); ok && len(frame) > 0 && frame[0] == xcompress.TagChunked {
			if parseRoot(frame) == nil {
				rootCached = true
			}
		}
	}
	if !rootCached {
		sc := span.Start("chunk.get", "chunk", 0)
		sc.SetAttr("key", key)
		start := time.Now()
		rout, err := o.Retry.DoCtx(o.Ctx, func() error {
			// The root GET rides the same guards as part GETs: a stalled
			// manifest read would otherwise serialize the whole download
			// behind one stuck stream. parseRoot never keeps a reference
			// into obj (decode copies, JSON copies), so the pooled wire
			// buffer goes straight back.
			obj, bp, err := guardedGet(st, key, o.GetTimeout, o.HedgeDelay, o.Stats)
			if err != nil {
				return classifyGetErr(err)
			}
			rootWire = int64(len(obj))
			perr := parseRoot(obj)
			wireBufs.Put(bp)
			return perr
		})
		newHistPair("chunkio.get.seconds", o.MetricDevice).Observe(time.Since(start).Seconds())
		retries = rout.Attempts - 1
		if retries > 0 {
			sc.SetAttr("retries", strconv.Itoa(retries))
		}
		sc.End()
		if err != nil {
			return nil, err
		}
	}
	if !chunked {
		if o.OnChunk != nil {
			o.OnChunk(0, int64(len(dst)))
		}
		return &DownloadResult{
			WireBytes: rootWire, Chunks: 1,
			DecompressWall: rootDur, DecompressCPU: rootDur,
			Retries: retries,
		}, nil
	}

	// The parts are the fetch half of the chunk engine over the manifest's
	// entries: each chunk's GET, decode and content-hash check form one
	// retry unit (see getUnit) — DecodeInto writes straight into the
	// chunk's disjoint window of dst, rejects any size mismatch, and a
	// successful re-attempt fully overwrites whatever a failed one left.
	ps := &pipeState{st: st, o: o, key: key, fetch: true, dst: dst, ready: o.OnChunk, cuts: cuts, entries: m.Chunks}
	ps.getRetries.Add(int64(retries))
	res, err := ps.run()
	if err != nil {
		return nil, err
	}
	res.Down.WireBytes += rootWire
	res.Down.RootCached = rootCached
	return &res.Down, nil
}
