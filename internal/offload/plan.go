package offload

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strconv"
	"time"

	"ompcloud/internal/arena"
	"ompcloud/internal/chunkio"
	"ompcloud/internal/netsim"
	"ompcloud/internal/resilience"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// This file is the plan engine: the one place the cloud device sequences the
// Fig. 1 workflow. Every way of entering the device — a standalone `target`
// region, the open, loops and close of a `target data` environment — is
// described as a plan (which buffers cross the host-target link and which
// are already driver-resident, whether there is a loop to run, and how the
// legs release work to each other) and handed to guard, which wraps the
// cross-cutting behaviour around execute once. The pricing device
// (price.go) builds the same plans and charges them through the same cost.

// bound binds one buffer of a plan to where it lives. A shipped buffer
// crosses the host-target link through cloud storage: an input travels host
// -> dev (the engine draws dev from the arena), an output dev -> host. A
// resident buffer stays on the driver: tasks read an input's dev,
// reconstruction builds an output's new bytes in final, and nothing touches
// storage. A size-only bound (the pricing device's) has neither host nor dev
// bytes, only size.
type bound struct {
	name string
	ship bool
	host []byte
	dev  []byte
	size int64
	// ratio is a resident buffer's wire bytes per raw byte when Spark moves
	// it over the LAN: an environment input's is what its upload measured
	// (shippedRatio), any other's is sampled (0 until then). A shipped
	// buffer's LAN volume is its stored wire.
	ratio float64

	// What executing the plan fills in. An output's final is the buffer
	// reconstruction builds and the output leg ships; stream mirrors it home
	// chunk by chunk under per-tile release. A loop's finals are drawn from
	// the arena; a transfer-only plan ships dev as it is.
	final  []byte
	stream *chunkio.OutStream
	// A shipped buffer's transfer accounting.
	key    string
	wire   int64 // stored wire size: what a reader of the object fetches
	sent   int64 // wire this plan put on the link (a cache hit sends none)
	cached bool  // whole-buffer content-cache hit
	// Modelled codec wall on the sending and the receiving side.
	encode, decode time.Duration
	// sum is the sha256 of content() once summed is set: the session
	// identity and the content-addressed key share one hash. Only the
	// goroutine working on the bound reads or fills it.
	sum    [sha256.Size]byte
	summed bool
}

// content is the buffer's current bytes as the plan starts.
func (b *bound) content() []byte {
	if b.ship {
		return b.host
	}
	return b.dev
}

// len reports the buffer's length in bytes, size-only or not.
func (b *bound) len() int64 { return int64(len(b.content())) + b.size }

// shippedRatio is the wire bytes per raw byte a shipped buffer's transfer
// measured, under the rule sampleResident applies to a probe: over SkipRatio
// moves raw. It reads wire, not sent, so a cache hit keeps the stored
// object's ratio; a zero-length buffer has none (0).
func (b *bound) shippedRatio() float64 {
	n := b.len()
	if n == 0 {
		return 0
	}
	if r := float64(b.wire) / float64(n); r <= xcompress.SkipRatio {
		return r
	}
	return 1
}

// contentSum is the sha256 of content(), hashed on first use.
func (b *bound) contentSum() [sha256.Size]byte {
	if !b.summed {
		b.sum, b.summed = sha256.Sum256(b.content()), true
	}
	return b.sum
}

func shipBounds(bufs []Buffer) []bound {
	out := make([]bound, len(bufs))
	for i := range bufs {
		out[i] = bound{name: bufs[i].Name, ship: true, host: bufs[i].Data, size: bufs[i].Size}
	}
	return out
}

// regionPlan is a standalone target region: every buffer ships, inputs up
// before the loop and outputs home after it.
func regionPlan(r *Region, prefix string, perTile bool) *plan {
	return &plan{kernel: r.Kernel, region: r, ins: shipBounds(r.Ins), outs: shipBounds(r.Outs), prefix: prefix, perTile: perTile}
}

func anyShipped(bs []bound) bool {
	for i := range bs {
		if bs[i].ship {
			return true
		}
	}
	return false
}

// errUnavailable is what guard returns for a plan it did not admit. Nothing
// of the plan ran, so the caller may retry it as it stands.
var errUnavailable = resilience.MarkTransient(errors.New("offload: cloud device unavailable (use the manager for host fallback)"))

// plan is one trip through the Fig. 1 workflow, as data.
type plan struct {
	// kernel labels the report and spans: the region's kernel, or the
	// target-data phase of a transfer-only plan.
	kernel string
	// region is the loop to run (steps 4-7); nil makes the plan
	// transfer-only. ins and outs parallel its Ins and Outs when set.
	region    *Region
	ins, outs []bound
	// prefix is the key scope of the objects the plan owns: the transfer legs
	// store under it, and everything under it is deleted when the plan ends —
	// unless it succeeded and keep is set, which hands the objects, and the
	// driver copies of the shipped inputs, to a later plan (env open -> the
	// environment's loops and close, which owns them even when it ships
	// nothing). "" owns nothing; a plan that ships needs a scope.
	prefix string
	keep   bool
	// perTile selects the release policy: false puts a barrier between the
	// legs (the paper's strict Fig. 1 ordering); true gates each tile's
	// task on its own input windows and ships each finished tile's outputs
	// while later tiles still compute. A one-tile loop has nothing to
	// overlap and runs barriered either way.
	perTile bool

	// What running the loop fills in: its tile count, each task's metrics
	// (nil when no loop ran) and the raw bytes reconstruction combined.
	tiles   int
	tasks   []spark.TaskMetrics
	tileRaw int64
}

// shipped reports whether the plan has storage legs at all.
func (pl *plan) shipped() bool { return anyShipped(pl.ins) || anyShipped(pl.outs) }

// guard is the device's single entry point: validate, admit (breaker and
// availability), land any deferred scale-in at this boundary, execute, price
// the report, and feed the outcome back to the breaker — a completed plan
// closes it and resets its failure streak, a transient failure counts toward
// the trip threshold. Permanent and unclassified errors are not device-health
// signals (a missing kernel or a validation error says nothing about the
// cloud) and leave the breaker untouched.
func (p *CloudPlugin) guard(pl *plan) (*trace.Report, error) {
	if pl.region != nil {
		if err := pl.region.Validate(); err != nil {
			return nil, err
		}
	}
	// A plan without storage legs must not pay health-probe round trips.
	if !p.admit(pl.shipped()) {
		return nil, errUnavailable
	}
	p.completeDrain()
	rep, err := p.execute(pl)
	p.applyCost(rep) // a failed plan has no report to price
	if p.breaker != nil {
		switch {
		case err == nil:
			p.breaker.Success()
		case resilience.IsTransient(err):
			p.breaker.Failure()
		}
	}
	return rep, err
}

// execute runs the legs the plan has, in Fig. 1 order — input transfer
// (steps 1-3), Spark job (4-6), reconstruction (7), output transfer (7-8) —
// then charges what was measured through the plan's one cost builder.
func (p *CloudPlugin) execute(pl *plan) (rep *trace.Report, err error) {
	r := pl.region
	rep = trace.NewReport(p.Name(), pl.kernel)
	rep.Cores = p.Cores()
	if pl.prefix != "" {
		defer func() {
			if err != nil || !pl.keep {
				p.cleanup(pl.prefix)
			}
		}()
	}
	tiles := 0
	if r == nil {
		if !pl.shipped() {
			return rep, nil
		}
	} else {
		tiles = r.TileCount(p.Cores())
		if tiles == 0 {
			// Zero-trip loop: reductions take their identity (partitioned
			// outputs are empty), nothing moves. A rewritten resident
			// buffer's sampled ratio no longer holds.
			for l := range r.Outs {
				setIdentity(r.Outs[l].Reduce, pl.outs[l].content())
				pl.outs[l].ratio = 0
			}
			return rep, nil
		}
		if p.cfg.AutoStartStop && p.cluster != nil {
			if err := p.startCluster(); err != nil {
				return nil, err
			}
			defer p.stopCluster()
		}
	}
	perTile := pl.perTile && tiles > 1
	p.logf("offload: job %s: offloading %s (%d tiles, per-tile release %v) to %s", pl.prefix, pl.kernel, tiles, perTile, p.Name())

	// Wall-clock region span on the host track; the legs hang under it so a
	// trace shows measured time next to the modelled timeline.
	region := span.Start("offload.region "+pl.kernel, "offload", 0)
	region.SetAttr("job", pl.prefix)
	region.SetAttr("tiles", strconv.Itoa(tiles))
	defer region.End()

	// One accounting block spans the plan's storage legs (retries, deadline
	// aborts, hedges, degraded-mode switches); its context cancels
	// stragglers when the plan unwinds.
	rs, cancel := p.newRunStats()
	defer cancel()

	// Resumable session: loads an interrupted predecessor's journal (cache
	// priming + committed-tile set) or starts fresh bookkeeping. A loop over
	// resident inputs is keyed on the device copies and resumes at tile
	// granularity only; the transfer-only plans around it are not journaled.
	var sess *session
	if r != nil && p.cfg.Resume {
		sess = p.openSession(r, tiles, pl.ins)
	}

	// Driver memory, drawn from the arena (internal/arena) before any leg
	// starts — a per-tile input leg opens tile gates against windows of dev,
	// and tasks compute into windows of final — and given back by release
	// once the last reader is done. It is dirty, and every byte of it is
	// written before it is read: a fetch writes every byte of its window,
	// zeros included (xcompress's decodeZero); the tile windows of a
	// partitioned output cover it exactly (Region.Validate); a loop body
	// overwrites every element of its window (kernels/bodies.go); and a
	// buffer that is read first — a reduction's accumulator, an
	// environment's map(from:)/alloc buffer — is set before use. Its defer is registered before the output streams' Abort, so it
	// runs after every Abort has drained. finals are rebuilt off to the side
	// (a tofrom buffer is both read by tasks and written here): a partitioned
	// one is covered exactly by its tiles' windows and stays dirty until
	// then, a reduction starts from its identity. A transfer-only plan ships
	// the resident bytes as they are.
	for k := range pl.ins {
		if b := &pl.ins[k]; b.ship {
			b.dev = arena.Get(len(b.host))
		}
	}
	for l := range pl.outs {
		b := &pl.outs[l]
		b.final = b.dev
		if r != nil {
			b.final = arena.Get(len(r.Outs[l].Data))
			if !r.Outs[l].Partitioned() {
				setIdentity(r.Outs[l].Reduce, b.final)
			}
		}
	}
	defer func() { pl.release(err != nil) }()

	// Input transfer. Barrier: it completes before anything else starts.
	// Per tile: it runs behind the job, opening tile gates as windows land.
	var sched *tileSched
	inDone := make(chan error, 1)
	if perTile {
		sched = newTileSched(r, tiles)
		go func() { inDone <- p.transferIn(pl, rs, sched, sess) }()
	} else if err := p.transferIn(pl, rs, nil, sess); err != nil {
		return nil, err
	}

	// Spark job and reconstruction.
	var jm *spark.JobMetrics
	var tileRaw int64
	if r != nil {
		defer func() {
			for l := range pl.outs {
				if s := pl.outs[l].stream; s != nil && err != nil {
					s.Abort()
				}
			}
		}()
		for l := range pl.outs {
			b := &pl.outs[l]
			if !perTile || !b.ship {
				continue
			}
			b.stream, err = chunkio.NewOutStream(p.cfg.Store, pl.prefix+"/out/"+b.name, b.final, b.host, p.chunkOpts(false, rs), nil)
			if err != nil {
				sched.fail(err)
				<-inDone
				return nil, fmt.Errorf("offload: storing output %s: %w", b.name, err)
			}
		}
		leg := span.Start("leg.spark", "offload", 0)
		var jobErr error
		jm, tileRaw, jobErr = p.runSparkJob(pl, tiles, sched, sess)
		leg.End()
		if perTile {
			// Input-side failures surface even when the job squeaked
			// through (a manifest commit can fail after every chunk was
			// piped and marked).
			if err := <-inDone; err != nil {
				return nil, err
			}
		}
		if jobErr != nil {
			return nil, jobErr
		}
		for l := range pl.outs {
			if b := &pl.outs[l]; !b.ship {
				b.dev = b.final // the rebuilt bytes are the resident buffer now
			}
		}
	}

	if err := p.transferOut(pl, rs, perTile); err != nil {
		return nil, err
	}
	p.applyNetCounters(rep, rs)

	pl.tiles, pl.tileRaw = tiles, tileRaw
	if jm != nil {
		pl.tasks = jm.Tasks
	}
	p.sampleResident(pl)
	if err := pl.charge(rep, &p.cfg, p.sctx.Spec(), p.accountProfile(), nil); err != nil {
		return nil, err
	}
	if jm != nil {
		rep.TaskFailures = jm.Failures
		rep.ReexecutedTasks = jm.Reexecuted
		rep.SpeculativeWins = jm.SpeculativeWins
		rep.SpeculativeLosses = jm.SpeculativeLosses
		rep.DeadWorkers = jm.DeadWorkers
	}
	if sess != nil {
		rep.ResumedTiles = sess.resumedTiles()
		sess.finish()
	}
	p.logf("offload: job %s: done (%d task failures, %d storage retries)", pl.prefix, rep.TaskFailures, rep.StorageRetries)
	return rep, nil
}

// release gives back to the arena the driver memory execute drew for the
// plan, once nothing reads or writes it any more. A failed plan gives back
// everything it drew. A plan that succeeded keeps what it hands on: its
// shipped inputs' driver copies when keep is set (an environment's open), and
// its resident outputs' finals, which the environment swaps in for the
// buffers the loop rewrote.
func (pl *plan) release(failed bool) {
	for k := range pl.ins {
		if b := &pl.ins[k]; b.ship && (failed || !pl.keep) {
			arena.Put(b.dev)
			b.dev = nil
		}
	}
	if pl.region == nil {
		return // the finals are the resident devs
	}
	for l := range pl.outs {
		if b := &pl.outs[l]; failed || b.ship {
			arena.Put(b.final)
			b.final = nil
		}
	}
}

// sampleResident estimates, for each driver-resident buffer, the
// compression ratio Spark gets when it ships the buffer over the LAN — the
// figure cost reads for it — by encoding its actual bytes once (Spark
// compresses everything it moves). It probes only bytes the device produced:
// a loop's outputs, and alloc'd buffers a loop reads. A buffer that crossed
// the link — shipped by this plan, or uploaded by an environment's open —
// keeps the ratio its transfer measured. A ratio over SkipRatio ships raw. A
// buffer is probed once, on the bytes it holds after the plan, and every
// bound of it gets the one figure: a buffer the loop rewrote is probed on its
// new bytes, and one whose ratio is already known keeps it. The probes run
// one after another: each holds a codec's pooled state, and a plan's first
// probes would otherwise each allocate one.
func (p *CloudPlugin) sampleResident(pl *plan) {
	ratios := make(map[string]float64, len(pl.ins)+len(pl.outs))
	probe := func(b *bound) {
		if _, ok := ratios[b.name]; ok {
			return
		}
		r, err := p.cfg.Codec.Ratio(b.dev[:min(len(b.dev), 1<<20)])
		if err != nil || r > xcompress.SkipRatio {
			r = 1
		}
		ratios[b.name] = r
	}
	for l := range pl.outs {
		if b := &pl.outs[l]; !b.ship {
			probe(b)
		}
	}
	for k := range pl.ins {
		if b := &pl.ins[k]; !b.ship && b.ratio == 0 {
			probe(b)
		}
	}
	for _, bs := range [][]bound{pl.ins, pl.outs} {
		for k := range bs {
			if r, ok := ratios[bs[k].name]; ok && !bs[k].ship {
				bs[k].ratio = r
			}
		}
	}
}

// charge prices the plan onto rep for the device cfg configures, of
// topology spec, over profile prof: cost builds the accountant's inputs,
// adjust (when set) applies a switch only a model can flip, and account
// charges them.
func (pl *plan) charge(rep *trace.Report, cfg *CloudConfig, spec spark.ClusterSpec, prof netsim.Profile, adjust func(*costInputs)) error {
	ci := pl.cost(cfg, spec)
	if adjust != nil {
		adjust(&ci)
	}
	return account(prof, ci, rep)
}

// cost assembles the accounting inputs from what running the plan filled in —
// what its legs and job measured, or what the pricing device derived. A leg the
// plan lacks contributes nothing: no shipped inputs means no upload or fetch
// volume, no job means no tasks, no shipped outputs means no write-back or
// download.
func (pl *plan) cost(cfg *CloudConfig, spec spark.ClusterSpec) costInputs {
	r := pl.region
	ci := costInputs{
		Workers:            spec.Workers,
		Cores:              spec.TotalCores(),
		PipelinedTransfers: cfg.pipelined(),
		ReconstructRaw:     pl.tileRaw,
		Costs:              cfg.Costs,
	}
	if pl.perTile && pl.tiles > 1 {
		ci.StreamTiles = pl.tiles
	}
	if pl.tasks != nil {
		ci.Tasks = pl.tasks
		ci.TaskCompute = make([]simtime.Duration, pl.tiles)
		ci.TaskEffective = make([]simtime.Duration, pl.tiles)
		ci.JNIBytes = make([]int64, pl.tiles)
		for i, tm := range pl.tasks {
			ci.JNIBytes[i] = tileBytes(r, pl.tiles, i)
			jni := cfg.JNI.PerCall(ci.JNIBytes[i])
			ci.TaskCompute[i] = tm.Compute + jni
			ci.TaskEffective[i] = tm.Effective + jni
		}
	}

	// Inputs: the host-target leg carries what was sent, the driver fetches
	// every shipped buffer whole, and the intra-cluster scatter/broadcast
	// moves each buffer at its real compression ratio — which is what makes
	// dense inputs so much more expensive than sparse ones.
	var hostEncode, driverDecode, driverEncode, hostDecode time.Duration
	for k := range pl.ins {
		b := &pl.ins[k]
		lan := b.wire
		if b.ship {
			ci.FetchWireSizes = append(ci.FetchWireSizes, b.wire)
			if !b.cached {
				ci.InWireSizes = append(ci.InWireSizes, b.sent)
			}
			hostEncode = max(hostEncode, b.encode)
			driverDecode = max(driverDecode, b.decode)
		} else {
			lan = int64(float64(b.len()) * b.ratio)
		}
		if r == nil || r.Ins[k].Len() == 0 {
			continue
		}
		if r.Ins[k].Partitioned() {
			ci.DistributeWire += lan
		} else {
			ci.BroadcastWire += lan
		}
	}

	// Outputs: every tile ships its outputs to the driver compressed at the
	// outputs' size-weighted ratio; the driver's store loop is serial, so
	// its codec work adds up, while the host decodes one stream per buffer.
	var outRaw int64
	if r != nil {
		outRaw = r.OutBytesRaw()
	}
	var collectRatio float64
	for l := range pl.outs {
		b := &pl.outs[l]
		if b.ship {
			ci.OutWireSizes = append(ci.OutWireSizes, b.wire)
			driverEncode += b.encode
			hostDecode = max(hostDecode, b.decode)
		}
		if r == nil || r.Outs[l].Len() == 0 {
			continue
		}
		if !b.ship {
			collectRatio += b.ratio * (float64(b.len()) / float64(outRaw))
			continue
		}
		collectRatio += float64(b.wire) / float64(outRaw)
		if !r.Outs[l].Partitioned() {
			// Final only after the last tile: cannot stream.
			ci.BarrierOutWire += b.wire
		}
	}
	if outRaw > 0 && pl.tileRaw > 0 {
		ci.CollectWire = int64(float64(pl.tileRaw) * collectRatio)
	}
	ci.HostCompress = simtime.FromReal(hostEncode)
	ci.HostDecompress = simtime.FromReal(hostDecode)
	ci.DriverDecompress = simtime.FromReal(driverDecode) + simtime.FromReal(driverEncode)
	return ci
}
