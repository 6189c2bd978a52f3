package offload

import (
	"fmt"
	"sync"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace/span"
)

// This file holds the legs the plan engine sequences: the two transfer
// routines (inputs host -> storage -> driver, outputs driver -> storage ->
// host), each in its barriered and its per-tile form, and the Spark job with
// its in-order reconstruction.

// tileResult is one task's output set travelling from workers to driver.
type tileResult struct {
	tile int
	outs [][]byte
}

// window guards one tile's windows of the partitioned finals. Speculation and
// retries can run a tile more than once, so an in-process attempt computes in
// place only if it claims mu with TryLock, holding it until it returns; a copy
// that loses the claim computes into buffers of its own. done records that a
// body has written the windows whole, after which no attempt writes there.
// reconstruct locks mu before it reads or fills the windows and never unlocks
// it: that seals them for the output stream and the resident copy-back.
type window struct {
	mu   sync.Mutex
	done bool
}

// eachShipped runs fn concurrently for every shipped buffer (one stream per
// datum, the paper's §III.A transfer policy) and reports the first error in
// buffer order.
func eachShipped(bs []bound, fn func(k int) error) error {
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	for k := range bs {
		if !bs[k].ship {
			continue
		}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			errs[k] = fn(k)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fetch reads b's stored object into dst through the transfer engine: the
// driver side of step 3 and the host side of step 8; what names the side in
// the error. onChunk, when non-nil, learns each decoded window; have, when
// non-nil, serves manifests this process wrote so they are not re-read over
// the wire.
func (p *CloudPlugin) fetch(what string, b *bound, dst []byte, rs *runStats, onChunk func(lo, hi int64), have func(key string) ([]byte, bool)) error {
	o := p.chunkOpts(false, rs)
	o.OnChunk, o.HaveObject = onChunk, have
	down, err := chunkio.DownloadInto(p.cfg.Store, b.key, dst, o)
	if err != nil {
		return fmt.Errorf("offload: %s %s: %w", what, b.name, err)
	}
	if down.RootCached {
		p.avoidedGets.Add(1)
	}
	b.decode = down.DecompressWall
	return nil
}

// transferIn is the input leg (Fig. 1 steps 1-3): every shipped input is
// encoded and stored by the host, then fetched and decoded into its dev
// buffer by the driver, each buffer on its own goroutine. With the upload
// cache enabled, buffers whose contents are already in cloud storage are not
// re-sent — the paper's future-work data caching — and partially-changed
// buffers resend only their dirty chunks.
//
// Without sched the two halves are barriered: every upload lands, then the
// fetches run. With sched each buffer's chunks flow host encode -> PUT ->
// GET -> driver decode in one fused pipe, and every decoded window is marked
// into the scheduler. Once the inputs are durable a session journals them,
// so a killed run's successor can skip the upload — even when the job itself
// goes on to fail.
func (p *CloudPlugin) transferIn(pl *plan, rs *runStats, sched *tileSched, sess *session) error {
	if !anyShipped(pl.ins) {
		return nil
	}
	mark := func(k int) func(lo, hi int64) {
		if sched == nil {
			return nil
		}
		return func(lo, hi int64) { sched.mark(k, lo, hi) }
	}
	upload := func(k int) error {
		b := &pl.ins[k]
		if p.cfg.EnableCache {
			b.key = chunkio.ContentKey(b.contentSum())
			if wire, ok := p.index.Have(b.key); ok {
				b.wire, b.cached = wire, true
				return nil
			}
		} else {
			b.key = pl.prefix + "/in/" + b.name
		}
		var up *chunkio.UploadResult
		var err error
		if sched != nil {
			var res *chunkio.PipeResult
			if res, err = chunkio.Pipe(p.cfg.Store, b.key, b.host, b.dev, p.chunkOpts(true, rs), mark(k)); err == nil {
				up, b.decode = &res.Up, res.Down.DecompressWall
				if res.Down.RootCached {
					p.avoidedGets.Add(1)
				}
			}
		} else {
			up, err = chunkio.Upload(p.cfg.Store, b.key, b.host, p.chunkOpts(true, rs))
		}
		if err != nil {
			return fmt.Errorf("offload: uploading %s: %w", b.name, err)
		}
		b.wire, b.sent, b.encode = up.TotalWire, up.SentWire, up.CompressWall
		if p.cfg.EnableCache {
			p.index.Remember(b.key, up.TotalWire)
		}
		return nil
	}
	fetchIn := func(k int) error {
		return p.fetch("driver input", &pl.ins[k], pl.ins[k].dev, rs, mark(k), nil)
	}
	leg := func(name string, fn func(k int) error) error {
		sc := span.Start(name, "offload", 0)
		defer sc.End()
		return eachShipped(pl.ins, fn)
	}

	var err error
	if sched == nil {
		if err = leg("leg.upload", upload); err != nil {
			return err
		}
	} else {
		err = leg("leg.transfer.in", func(k int) error {
			err := upload(k)
			if err == nil && pl.ins[k].cached {
				// A whole-buffer hit skips the upload half; windows mark
				// as the driver fetch proceeds.
				err = fetchIn(k)
			}
			if err != nil {
				sched.fail(err)
			}
			return err
		})
	}
	if err == nil && sess != nil {
		sess.writeJournal(pl.region, pl.ins)
	}
	if sched == nil {
		err = leg("leg.fetch", fetchIn)
	}
	return err
}

// transferOut is the output leg (Fig. 1 steps 7-8): every shipped output's
// final bytes are encoded and stored by the driver, then fetched and decoded
// into the host buffer. Under per-tile release most chunks are home already —
// Finish ships the tail and commits the manifests. Otherwise the two halves
// are barriered: a serial store loop (the driver's codec work adds up), then
// one download stream per buffer. The store loop keeps the manifest frames
// it writes, so the download does not pay a round trip re-reading metadata
// this process authored (CacheStats.AvoidedGets). The frames are scoped to
// the plan: keys are per-job prefixed, and holding them across jobs would
// risk serving stale metadata after a store wipe.
func (p *CloudPlugin) transferOut(pl *plan, rs *runStats, perTile bool) error {
	if !anyShipped(pl.outs) {
		return nil
	}
	if perTile {
		sc := span.Start("leg.flush.out", "offload", 0)
		defer sc.End()
		for l := range pl.outs {
			b := &pl.outs[l]
			if b.stream == nil {
				continue
			}
			res, err := b.stream.Finish()
			if err != nil {
				return fmt.Errorf("offload: storing output %s: %w", b.name, err)
			}
			b.wire, b.encode, b.decode = res.Up.TotalWire, res.Up.CompressWall, res.Down.DecompressWall
			if res.Down.RootCached {
				p.avoidedGets.Add(1)
			}
		}
		return nil
	}
	frames := make(map[string][]byte)
	sc := span.Start("leg.store", "offload", 0)
	for l := range pl.outs {
		b := &pl.outs[l]
		if !b.ship {
			continue
		}
		o := p.chunkOpts(false, rs)
		o.OnManifest = func(key string, frame []byte) { frames[key] = frame }
		b.key = pl.prefix + "/out/" + b.name
		up, err := chunkio.Upload(p.cfg.Store, b.key, b.final, o)
		if err != nil {
			sc.End()
			return fmt.Errorf("offload: storing output %s: %w", b.name, err)
		}
		b.wire, b.encode = up.TotalWire, up.CompressWall
	}
	sc.End()
	sc = span.Start("leg.download", "offload", 0)
	defer sc.End()
	have := func(key string) ([]byte, bool) {
		frame, ok := frames[key]
		return frame, ok
	}
	return eachShipped(pl.outs, func(l int) error {
		return p.fetch("downloading", &pl.outs[l], pl.outs[l].host, rs, nil, have)
	})
}

// tileBytes reports the raw bytes task p marshals across the JNI boundary.
func tileBytes(r *Region, tiles, p int) (n int64) {
	lo, hi := TileRange(r.N, tiles, p)
	for _, bufs := range [][]Buffer{r.Ins, r.Outs} {
		for k := range bufs {
			n += bufs[k].window(lo, hi)
		}
	}
	return n
}

// runSparkJob distributes the tiled loop over the cluster (Eq. 1-7) — one
// RDD partition per tile, partitioned inputs sliced per tile out of their dev
// buffers, unpartitioned inputs broadcast, the loop body invoked through the
// fat-binary registry (the JNI analog) — and reconstructs every finished
// tile into finals as it arrives. sched (non-nil) gates each tile's task on
// its input readiness and aborts queued tiles once the transfer side has
// failed. sess (non-nil) makes the job resumable: tiles already committed by
// an interrupted predecessor are served from storage, and every finished
// tile commits its outputs before the result flows onward. It returns the
// job's metrics and the total raw output bytes the tasks produced.
func (p *CloudPlugin) runSparkJob(pl *plan, tiles int, sched *tileSched, sess *session) (*spark.JobMetrics, int64, error) {
	r, ins := pl.region, pl.ins
	// Broadcast the unpartitioned inputs so the engine's accounting sees
	// them; partitioned inputs are captured per tile by the closure,
	// standing in for the scatter of Eq. 3.
	unpart := make([][]byte, len(r.Ins))
	var bcastRaw int64
	for k := range r.Ins {
		if !r.Ins[k].Partitioned() {
			unpart[k] = ins[k].dev
			bcastRaw += int64(len(ins[k].dev))
		}
	}
	bc := spark.NewBroadcast(p.sctx, unpart, bcastRaw)

	rdd, err := spark.Range(p.sctx, int64(tiles), tiles)
	if err != nil {
		return nil, 0, err
	}
	wins := make([]window, tiles)
	job := spark.MapPartitions(rdd, func(part int, _ []int64) ([]tileResult, error) {
		if sched != nil {
			// The gate has opened, but possibly because the transfer side
			// failed and released everything: abort instead of computing
			// on incomplete inputs.
			if err := sched.Err(); err != nil {
				return nil, err
			}
		}
		lo, hi := TileRange(r.N, tiles, part)
		outSizes := make([]int64, len(r.Outs))
		outInit := make([]byte, len(r.Outs))
		for l := range r.Outs {
			outSizes[l] = r.Outs[l].window(lo, hi)
			switch r.Outs[l].Reduce {
			case ReduceMaxF32:
				outInit[l] = remoteexec.InitNegInfF
			case ReduceMinF32:
				outInit[l] = remoteexec.InitPosInfF
			}
		}
		if sess != nil {
			if outs, ok := sess.lookupTile(part, outSizes); ok {
				return []tileResult{{tile: part, outs: outs}}, nil
			}
		}
		tileIns := make([][]byte, len(r.Ins))
		for k := range r.Ins {
			if r.Ins[k].Partitioned() {
				tileIns[k] = ins[k].dev[lo*r.Ins[k].BytesPerIter : hi*r.Ins[k].BytesPerIter]
			} else {
				tileIns[k] = bc.Value()[k]
			}
		}
		req := &remoteexec.TileRequest{
			Kernel: r.Kernel, Lo: r.Base + lo, Hi: r.Base + hi, Scalars: r.Scalars,
			Ins: tileIns, OutSizes: outSizes, OutInit: outInit,
		}
		var outs [][]byte
		var err error
		if p.pool != nil {
			// Ship the tile to its assigned remote worker process —
			// the JNI boundary made literal.
			outs, err = p.pool.Run(p.sctx.PartitionWorker(part, tiles), req)
		} else {
			// In process, partitioned outputs compute straight into their
			// windows of the finals (Eq. 8's offset writes, made by the
			// body instead of copied by the driver) when this attempt can
			// claim them.
			w := &wins[part]
			var dst [][]byte
			if w.mu.TryLock() {
				defer w.mu.Unlock()
				if !w.done {
					dst = make([][]byte, len(r.Outs))
					for l := range r.Outs {
						if bpi := r.Outs[l].BytesPerIter; bpi > 0 {
							dst[l] = pl.outs[l].final[lo*bpi : hi*bpi]
						}
					}
				}
			}
			outs, err = remoteexec.Execute(r.registry(), req, dst)
			if err == nil && dst != nil {
				w.done = true
			}
		}
		if err != nil {
			return nil, err
		}
		if sess != nil {
			sess.commitTile(part, outs)
		}
		return []tileResult{{tile: part, outs: outs}}, nil
	})
	if sched != nil {
		job = spark.Gated(job, sched.gate)
	}

	// Every finished tile flows to the reconstruction consumer the moment
	// its task succeeds, while others still run.
	resCh := make(chan tileResult, tiles)
	var tileRaw int64
	reconDone := make(chan error, 1)
	go func() {
		var err error
		tileRaw, err = reconstruct(r, tiles, resCh, pl.outs, wins)
		reconDone <- err
	}()
	_, jm, err := job.CollectPartitionsEach(func(_ int, items []tileResult) {
		for _, tr := range items {
			resCh <- tr
		}
	})
	close(resCh)
	reconErr := <-reconDone
	if err != nil {
		return nil, 0, fmt.Errorf("offload: spark job: %w", err)
	}
	return jm, tileRaw, reconErr
}

// reconstruct rebuilds each output on the driver (Eq. 8) from the tiles
// arriving on ch: offset writes for partitioned outputs, reductions
// otherwise. Tiles are applied strictly in index order — out-of-order
// arrivals park until their turn — so order-sensitive float reductions
// combine identically under either release policy, the bit-identity
// requirement. An output with a stream learns how far it is final as the
// frontier advances; a reduction is final only after the last tile, so its
// whole transfer is the barriered tail of the pipeline. A tile whose body
// computed in place (wins[t].done) is already at its windows; any other
// partitioned result — from a remote worker, a resumed session, a copy that
// could not claim the windows — is copied there, after the windows are
// locked for good. It also reports the raw byte volume combined: the sum of
// every tile's outputs, wherever they were computed.
func reconstruct(r *Region, tiles int, ch <-chan tileResult, outs []bound, wins []window) (raw int64, err error) {
	advance := func(l int, hi int64) {
		if outs[l].stream != nil {
			outs[l].stream.Advance(hi)
		}
	}
	pending := make(map[int][][]byte, tiles)
	next := 0
	for tr := range ch {
		pending[tr.tile] = tr.outs
		for {
			tile, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			lo, hi := TileRange(r.N, tiles, next)
			w := &wins[next]
			w.mu.Lock() // sealed: never unlocked
			for l := range r.Outs {
				raw += int64(len(tile[l]))
				if bpi := r.Outs[l].BytesPerIter; bpi > 0 {
					win := outs[l].final[lo*bpi : hi*bpi]
					if len(tile[l]) != len(win) {
						if err == nil {
							err = fmt.Errorf("offload: tile %d output %s is %d bytes, want its %d-byte window", next, r.Outs[l].Name, len(tile[l]), len(win))
						}
						continue
					}
					if !w.done {
						copy(win, tile[l])
					}
					if err == nil {
						advance(l, hi*bpi)
					}
				} else if cerr := combine(r.Outs[l].Reduce, outs[l].final, tile[l]); cerr != nil && err == nil {
					err = cerr
				}
			}
			next++
		}
	}
	if next == tiles && err == nil {
		for l := range r.Outs {
			if !r.Outs[l].Partitioned() {
				advance(l, int64(len(outs[l].final)))
			}
		}
	}
	return raw, err
}
