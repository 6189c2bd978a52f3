package chunkio

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ompcloud/internal/arena"
	"ompcloud/internal/resilience"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// This file is the chunk engine and its streaming faces. Every entry point
// of the package runs the same per-chunk worker; they differ only in which
// halves of a chunk they ask for and in who releases chunks to the workers:
//
//   - Upload runs the store half of every chunk and releases them all at
//     once; DownloadInto (chunkio.go) reads the root object itself and runs
//     the fetch half over the manifest's entries.
//   - Pipe fuses an input's host-side upload with its driver-side fetch:
//     the moment chunk k's PUT lands it is fetched back and decoded into
//     the driver buffer, and a readiness callback fires for its byte
//     window — so the tile scheduler can launch tile k while chunk k+1 is
//     still compressing on the host.
//   - OutStream is the mirror for outputs: the driver reconstructs tiles
//     in index order into a buffer, advancing a watermark; every chunk
//     that falls fully below the watermark is released to run both halves
//     while later tiles still compute.
//
// The manifest is committed last, after every part — a reader never observes
// a manifest whose parts are missing. Pipe and OutStream never fetch it back:
// the consumer lives in the same process and learns completion from the call
// returning, which is why their fetch half reports DownloadResult.RootCached.

// PipeResult pairs the upload and fetch halves of one fused transfer.
type PipeResult struct {
	Up   UploadResult
	Down DownloadResult
}

// pipeState is the chunk engine: one transfer's chunks, the workers that
// move them and the accounting they leave. A chunk has two optional halves.
// The store half cuts the chunk out of src, asks the content index whether the
// store already has it, encodes it under the plan, PUTs it and records its
// manifest entry. The fetch half GETs the entry's key, decodes it into the
// same window of dst, checks the decoded content hash and announces the
// window through ready. Both run back to back in one worker, the PUT and
// the GET+decode as independent retry units.
type pipeState struct {
	st  storage.Store
	o   Options
	key string

	store, fetch bool
	src, dst     []byte
	cuts         []int // chunk end-offsets (see cutPoints)
	// single marks the one-chunk layout of the store half: a buffer of at
	// most one chunk is stored as a plain frame at the root key, with no
	// manifest, so its one GET is the data transfer itself.
	single bool
	plan   func(chunk []byte) xcompress.Verdict
	ready  func(lo, hi int64)

	jobs      chan int
	wg        sync.WaitGroup
	closeOnce sync.Once
	compHist  histPair

	entries          []chunkEntry
	encDurs, decDurs []time.Duration
	fetched          []int64
	errs             []error
	sent, reused     atomic.Int64
	reusedRaw        atomic.Int64
	putRetries       atomic.Int64
	getRetries       atomic.Int64
	stopped          atomic.Bool
}

// newStorer prepares an engine whose chunks have a store half over src.
func newStorer(st storage.Store, key string, src []byte, o Options) *pipeState {
	cs := o.chunkSize()
	ps := &pipeState{st: st, o: o, key: key, store: true, src: src, single: len(src) <= cs}
	ps.cuts = cutPoints(src, cs, o.CDC)
	ps.entries = make([]chunkEntry, len(ps.cuts))
	return ps
}

// setPlan builds the per-chunk codec plan from probe, the finalized prefix
// of src (xcompress.Codec.Planner: AlgoAuto probes it once and reuses the
// verdict for every chunk; AlgoAdaptive re-decides per chunk). Each worker of
// a multi-chunk transfer can count on its share of the wire; the one chunk
// of the single layout rides the whole of it.
func (ps *pipeState) setPlan(probe []byte) {
	wire := ps.o.wireShare()
	if ps.single {
		wire = ps.o.WireBytesPerS
	}
	ps.plan = ps.o.Codec.Planner(probe, wire)
}

// start launches the workers. Chunks reach them through release; the jobs
// channel is sized to the chunk count, so releasing never blocks the caller
// (an OutStream's producer least of all).
func (ps *pipeState) start() {
	n := len(ps.cuts)
	ps.jobs = make(chan int, n)
	ps.encDurs = make([]time.Duration, n)
	ps.decDurs = make([]time.Duration, n)
	ps.fetched = make([]int64, n)
	ps.errs = make([]error, n)
	if ps.store {
		ps.compHist = newHistPair("chunkio.compress.seconds", ps.o.MetricDevice)
	}
	for w := min(ps.o.parallel(), n); w > 0; w-- {
		ps.wg.Add(1)
		go ps.work()
	}
}

// work is one worker: its put and get units are allocated once and reused
// for every chunk it is handed.
func (ps *pipeState) work() {
	defer ps.wg.Done()
	var pu *putUnit
	var gu *getUnit
	if ps.store {
		pu = newPutUnit(ps.st, &ps.o, &ps.putRetries)
	}
	if ps.fetch {
		gu = newGetUnit(ps.st, &ps.o, &ps.getRetries)
	}
	for i := range ps.jobs {
		ps.runChunk(i, pu, gu)
	}
}

// release hands chunks [from, to) to the workers.
func (ps *pipeState) release(from, to int) {
	for i := from; i < to; i++ {
		ps.jobs <- i
	}
}

// run releases every chunk at once and finishes the transfer.
func (ps *pipeState) run() (*PipeResult, error) {
	ps.start()
	ps.release(0, len(ps.cuts))
	return ps.finish()
}

// drain closes the job queue and waits for the workers to finish what was
// released.
func (ps *pipeState) drain() {
	ps.closeOnce.Do(func() { close(ps.jobs) })
	ps.wg.Wait()
}

// window returns chunk i's [lo, hi) byte range of src and dst.
func (ps *pipeState) window(i int) (lo, hi int) {
	if i > 0 {
		lo = ps.cuts[i-1]
	}
	return lo, ps.cuts[i]
}

// fail records chunk i's error and stops launching further work; chunks
// already in flight drain on their own.
func (ps *pipeState) fail(i int, err error) {
	ps.errs[i] = err
	ps.stopped.Store(true)
}

// runChunk moves chunk i through the halves this transfer asked for.
func (ps *pipeState) runChunk(i int, pu *putUnit, gu *getUnit) {
	if ps.stopped.Load() {
		return
	}
	if cerr := ps.o.ctxErr(); cerr != nil {
		ps.fail(i, resilience.MarkPermanent(fmt.Errorf("chunkio: transfer of %s cancelled: %w", ps.key, cerr)))
		return
	}
	lo, hi := ps.window(i)
	if ps.store {
		if err := ps.storeChunk(i, ps.src[lo:hi], pu); err != nil {
			ps.fail(i, err)
			return
		}
	}
	if ps.fetch {
		wire, dur, err := gu.fetch(ps.entries[i].Key, ps.dst[lo:hi])
		if err != nil {
			ps.fail(i, err)
			return
		}
		ps.decDurs[i] = dur
		ps.fetched[i] = wire
		if ps.ready != nil {
			ps.ready(int64(lo), int64(hi))
		}
	}
}

// storeChunk is the store half of chunk i. Parts are keyed by position, or
// by content when an index is wired (Options.Index): a chunk the index
// already has skips its encode and PUT, and only its manifest entry is
// written.
func (ps *pipeState) storeChunk(i int, chunk []byte, pu *putUnit) error {
	ckey, idx := ps.key, ps.o.Index
	switch {
	case ps.single:
		idx = nil
	case idx != nil:
		ckey = ChunkKey(sha256.Sum256(chunk))
		if wire, ok := idx.Have(ckey); ok {
			ps.entries[i] = chunkEntry{Key: ckey, Raw: int64(len(chunk)), Wire: wire}
			ps.reused.Add(1)
			ps.reusedRaw.Add(int64(len(chunk)))
			return nil
		}
	default:
		ckey = partKey(ps.key, i)
	}
	head, body, scratch, err := ps.encode(i, ckey, chunk)
	if err == nil {
		if err = pu.put(ckey, head, body); err != nil {
			err = fmt.Errorf("chunkio: storing %s: %w", ckey, err)
		}
	}
	arena.Put(scratch) // stores copy on Put; safe once put returns
	if err != nil {
		return err
	}
	wire := int64(len(head) + len(body))
	ps.entries[i] = chunkEntry{Key: ckey, Raw: int64(len(chunk)), Wire: wire}
	ps.sent.Add(wire)
	if idx != nil {
		idx.Remember(ckey, wire)
	}
	return nil
}

// encode gives chunk i's frame under the plan as the two parts of
// xcompress.Codec.Frame. A raw frame is the tag and the chunk itself: it
// borrows no scratch and records no codec time. Any other frame is encoded,
// and timed, into scratch drawn from the arena, returned for the caller to
// give back once its PUT is done. So does the single layout's one chunk up
// to DefaultChunkSize; past that it can be the whole buffer (chunk-bytes =
// -1), a buffer too large to park in the arena, and it draws nothing.
func (ps *pipeState) encode(i int, ckey string, chunk []byte) (head, body, scratch []byte, err error) {
	v := ps.plan(chunk)
	if v == xcompress.VerdictRaw {
		head, body, err = ps.o.Codec.Frame(nil, chunk, v)
		return head, body, nil, err
	}
	if !ps.single || len(chunk) <= DefaultChunkSize {
		scratch = arena.Scratch(frameRoom(len(chunk)))
	}
	sc := span.Start("chunk.compress", "chunk", 0)
	sc.SetAttr("key", ckey)
	start := time.Now()
	head, body, err = ps.o.Codec.Frame(scratch, chunk, v)
	ps.encDurs[i] = time.Since(start)
	sc.End()
	ps.compHist.Observe(ps.encDurs[i].Seconds())
	if err != nil {
		// Encoding is local CPU work: retrying cannot help.
		err = resilience.MarkPermanent(fmt.Errorf("chunkio: encoding %s: %w", ckey, err))
	}
	return head, body, scratch, err
}

func (ps *pipeState) firstErr() error {
	for _, err := range ps.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// discardParts deletes the objects a failed transfer stored, so an aborted
// transfer leaves no orphans behind. Content-addressed chunks (Index set)
// are exempt: they are shared cache entries that other manifests may already
// reference, and re-uploads find them by content. Best effort — a store too
// broken to delete is a store whose garbage the caller's prefix cleanup or
// wipe handles.
func (ps *pipeState) discardParts() {
	if !ps.store || ps.o.Index != nil {
		return
	}
	for _, e := range ps.entries {
		if e.Key != "" {
			_ = ps.st.Delete(e.Key)
		}
	}
}

// commitManifest writes the manifest frame after every part has landed,
// returning its wire length.
func (ps *pipeState) commitManifest() (int, error) {
	m := manifest{Version: manifestVersion, ChunkSize: ps.o.chunkSize(), RawSize: int64(len(ps.src)), Chunks: ps.entries}
	body, err := json.Marshal(m)
	if err != nil {
		return 0, fmt.Errorf("chunkio: %w", err)
	}
	frame := make([]byte, 1+len(body))
	frame[0] = xcompress.TagChunked
	copy(frame[1:], body)
	if err := newPutUnit(ps.st, &ps.o, &ps.putRetries).put(ps.key, frame, nil); err != nil {
		return 0, fmt.Errorf("chunkio: storing manifest %s: %w", ps.key, err)
	}
	if ps.o.OnManifest != nil {
		ps.o.OnManifest(ps.key, frame)
	}
	return len(frame), nil
}

// finish waits for every released chunk, commits the manifest of a
// multipart store, and reports both halves' accounting. Any failure — a
// chunk's or the manifest's — discards what the transfer stored.
func (ps *pipeState) finish() (*PipeResult, error) {
	ps.drain()
	err := ps.firstErr()
	frameLen := 0
	if err == nil && ps.store && !ps.single {
		frameLen, err = ps.commitManifest()
	}
	if err != nil {
		ps.discardParts()
		return nil, err
	}
	return ps.results(frameLen), nil
}

// results assembles the two halves' accounting after a successful run.
func (ps *pipeState) results(frameLen int) *PipeResult {
	n := len(ps.cuts)
	up := UploadResult{
		Chunks:    n,
		Reused:    int(ps.reused.Load()),
		ReusedRaw: ps.reusedRaw.Load(),
		Retries:   int(ps.putRetries.Load()),
	}
	up.TotalWire = int64(frameLen)
	for _, e := range ps.entries {
		up.TotalWire += e.Wire
	}
	up.SentWire = ps.sent.Load() + int64(frameLen)
	up.CompressWall, up.CompressCPU = wallOf(ps.encDurs, ps.o.parallel())

	down := DownloadResult{
		Chunks:     n,
		Retries:    int(ps.getRetries.Load()),
		RootCached: !ps.single,
	}
	for _, w := range ps.fetched {
		down.WireBytes += w
	}
	down.DecompressWall, down.DecompressCPU = wallOf(ps.decDurs, ps.o.parallel())
	return &PipeResult{Up: up, Down: down}
}

// Upload stores buf under key, chunked and pipelined per the options.
// Payloads of at most one chunk are stored as a single legacy-framed object;
// larger ones become a manifest plus parts.
func Upload(st storage.Store, key string, buf []byte, o Options) (*UploadResult, error) {
	ps := newStorer(st, key, buf, o)
	ps.setPlan(buf)
	res, err := ps.run()
	if err != nil {
		return nil, err
	}
	return &res.Up, nil
}

// Pipe stores buf under key while concurrently fetching it back into dst
// (which must be len(buf) bytes), invoking ready(lo, hi) — when non-nil —
// after each byte window of dst is final. Windows complete out of order and
// ready must be safe for concurrent calls. The stored layout is identical
// to Upload's, so the object stays readable by DownloadInto and reusable by
// the content cache.
func Pipe(st storage.Store, key string, buf, dst []byte, o Options, ready func(lo, hi int64)) (*PipeResult, error) {
	if len(dst) != len(buf) {
		return nil, resilience.MarkPermanent(fmt.Errorf("chunkio: pipe %s: dst is %d bytes, want %d", key, len(dst), len(buf)))
	}
	ps := newStorer(st, key, buf, o)
	ps.fetch, ps.dst, ps.ready = true, dst, ready
	ps.setPlan(buf)
	return ps.run()
}

// OutStream ships a buffer that is still being produced. The producer fills
// src front to back (the driver reconstructs tiles in index order) and
// calls Advance as the frontier moves; every chunk that falls entirely
// below the frontier is released to the engine's workers — encoded, stored,
// fetched and decoded into dst — while the producer keeps going. Finish
// flushes the tail, commits the manifest, and reports both halves'
// accounting.
type OutStream struct {
	ps *pipeState

	mu    sync.Mutex
	water int64
	next  int // next chunk index not yet released
}

// NewOutStream prepares a stream storing src under key and mirroring it
// into dst (len(dst) must equal len(src)). ready — when non-nil — fires
// after each window of dst is final, like Pipe's. A payload of at most one
// chunk is released when the frontier reaches its end: there is nothing to
// overlap.
//
// Content-defined chunking is forced off: Gear cuts depend on bytes that a
// streaming producer has not written yet, so an OutStream always uses
// fixed-size cuts regardless of Options.CDC. An output's bytes are new per
// job anyway — the cross-session dedup payoff CDC exists for belongs to the
// input side.
func NewOutStream(st storage.Store, key string, src, dst []byte, o Options, ready func(lo, hi int64)) (*OutStream, error) {
	if len(dst) != len(src) {
		return nil, resilience.MarkPermanent(fmt.Errorf("chunkio: outstream %s: dst is %d bytes, want %d", key, len(dst), len(src)))
	}
	o.CDC = false
	ps := newStorer(st, key, src, o)
	ps.fetch, ps.dst, ps.ready = true, dst, ready
	ps.start()
	return &OutStream{ps: ps}, nil
}

// Advance tells the stream that src[:hi] is final. It is monotonic (a lower
// hi than before is a no-op) and releases every chunk now fully below the
// frontier. The producer must not mutate finalized bytes afterwards.
func (s *OutStream) Advance(hi int64) {
	if hi > int64(len(s.ps.src)) {
		hi = int64(len(s.ps.src))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if hi > s.water {
		s.water = hi
	}
	s.releaseBelow()
}

// releaseBelow releases the chunks that end at or below the frontier; the
// caller holds s.mu.
func (s *OutStream) releaseBelow() {
	ps, from := s.ps, s.next
	for s.next < len(ps.cuts) && int64(ps.cuts[s.next]) <= s.water {
		s.next++
	}
	if from == 0 && s.next > 0 {
		// The first chunk is final, so building the plan from it reads only
		// finalized bytes: AlgoAuto's probe samples within chunk 0, and
		// AlgoAdaptive's plan defers all reads to each chunk's own verdict.
		ps.setPlan(ps.src[:ps.cuts[0]])
	}
	ps.release(from, s.next)
}

// Finish flushes everything, commits the manifest last, and returns the
// accounting of both halves. The producer must have advanced the frontier
// to the full length first.
func (s *OutStream) Finish() (*PipeResult, error) {
	s.mu.Lock()
	s.releaseBelow() // an empty buffer's one chunk ends at the initial frontier
	complete := s.next == len(s.ps.cuts)
	s.mu.Unlock()
	if !complete {
		s.Abort()
		return nil, resilience.MarkPermanent(fmt.Errorf("chunkio: outstream %s: Finish before the frontier reached %d bytes", s.ps.key, len(s.ps.src)))
	}
	return s.ps.finish()
}

// Abort stops the stream early (error paths): no manifest is committed,
// in-flight chunks drain before it returns, and the parts already stored
// are deleted — an aborted stream leaves no orphaned objects.
func (s *OutStream) Abort() {
	s.ps.stopped.Store(true)
	s.ps.drain()
	s.ps.discardParts()
}
