package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ompcloud/internal/chunkio"
	"ompcloud/internal/data"
	"ompcloud/internal/kernels"
	"ompcloud/internal/netsim"
	"ompcloud/internal/offload"
	"ompcloud/internal/omp"
	"ompcloud/internal/serve"
	"ompcloud/internal/simtime"
	"ompcloud/internal/spark"
	"ompcloud/internal/storage"
	"ompcloud/internal/trace"
	"ompcloud/internal/trace/span"
	"ompcloud/internal/xcompress"
)

// The traced run. It repeats the workload with the interposers on — paired
// with untraced ops so the tracing overhead is measured in the same process
// — then replays each layer's public functions on the workload's inputs.
// Every call it makes into a layer is a span; the spans are kept in memory
// and written as one Chrome trace per workload when the run ends.

const (
	tracedOps  = 3   // traced ops of a region workload (each paired with an untraced one)
	replayReps = 20  // repetitions behind every small-call median
	wireReps   = 64  // 1 MiB PUT/GETs behind every storage throughput
	daemonReps = 500 // jobs of the directly driven Daemon
)

// layerRun collects one traced run.
type layerRun struct {
	tally // the traced ops, plus one per replay round trip checked
	tr    *tracer
	m     map[string]float64
}

// timed runs f under a replay span and returns its wall seconds.
func (l *layerRun) timed(name, layer string, f func() error) (float64, error) {
	h := l.tr.begin(name, layer, "replay", noParent)
	start := time.Now()
	err := f()
	d := time.Since(start)
	l.tr.end(h)
	return d.Seconds(), err
}

// medianOf times reps calls of f and returns the median wall seconds.
func (l *layerRun) medianOf(name, layer string, reps int, f func() error) (float64, error) {
	var samples []float64
	for i := 0; i < reps; i++ {
		s, err := l.timed(name, layer, f)
		if err != nil {
			return 0, err
		}
		samples = append(samples, s)
	}
	return median(samples), nil
}

func runTraced(cfg runConfig) (*result, error) {
	l := &layerRun{tr: newTracer(), m: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		l.m[d.Name] = 0 // a layer the workload does not cross reports 0
	}
	var err error
	if cfg.workload == "daemon-smalljobs" {
		err = l.daemon(cfg)
	} else {
		err = l.region(cfg)
	}
	if err != nil {
		return nil, err
	}
	l.m["proc.peak_rss_mib"] = peakRSSMiB()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	spans, dropped, err := l.tr.export(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	l.m["trace.spans"] = float64(spans)
	l.m["trace.dropped"] = float64(dropped)
	return newResult(perLayer, l.m, l.attempted, l.tally)
}

// --- region workloads ----------------------------------------------------

func (l *layerRun) region(cfg runConfig) error {
	var bufs streamBufs
	rb, err := startRegionBlock(cfg.workload, cfg.sz, cfg.seed, l.tr, &bufs, nil)
	if err != nil {
		return err
	}
	p := rb.prepared
	taskHist := span.Metrics().Histogram("spark.task.compute.seconds")

	var plain, traced []float64
	var ops []*regionOp
	var taskBusy, calls float64
	for i := 0; i < tracedOps; i++ {
		if op := rb.timedOp(nil, fmt.Sprintf("plain%d", i)); op != nil {
			plain = append(plain, op.sample.wallS)
		}
		busy0, calls0 := histSum(taskHist), p.registry.Calls()
		if op := rb.timedOp(l.tr, fmt.Sprintf("op%d", i)); op != nil {
			traced = append(traced, op.sample.wallS)
			ops = append(ops, op)
			taskBusy += histSum(taskHist) - busy0
			calls += float64(p.registry.Calls() - calls0)
		}
	}
	l.tally = rb.tally
	if len(ops) == 0 || len(plain) == 0 {
		return fmt.Errorf("%s: no traced op completed: %v", cfg.workload, rb.failures)
	}
	n := float64(len(ops))
	l.m["trace.overhead_share"] = median(traced)/median(plain) - 1
	l.m["host.slowdown_x"] = median(rb.probes) / probeRefS // base: the reference host speed
	l.m["host.raw_op_wall_s"] = median(plain)
	l.m["spark.task_busy_s"] = taskBusy / n
	l.m["kernels.calls"] = calls / n
	if p.tileBusy != nil {
		l.m["kernels.tile_busy_s"] = time.Duration(p.tileBusy.Load()).Seconds() / n
	}
	var reports []*trace.Report
	var gcCycles, gcPause, self float64
	stats := &storeStats{}
	for _, op := range ops {
		reports = append(reports, op.report)
		gcCycles += float64(op.gcCycles)
		gcPause += float64(op.gcPauseNS) / 1e6
		self += op.selfS
		addStats(stats, op.stats)
	}
	l.m["proc.gc_cycles_per_op"] = gcCycles / n
	l.m["proc.gc_pause_ms_per_op"] = gcPause / n
	l.m["offload.op_self_s"] = self / n
	l.storeMetrics(stats, n)
	l.reportMetrics(reports)

	// The plain baselines: the same problem on the host device, with one
	// thread (the kernel alone) and with nproc threads (what not
	// offloading costs).
	hostRun := func(threads int) func() error {
		return func() error {
			rt, err := omp.NewRuntime(threads)
			if err != nil {
				return err
			}
			_, err = p.run(rt, rt.HostDevice())
			return err
		}
	}
	serial, err := l.timed("host-1-thread", "kernels", hostRun(1))
	if err != nil {
		return err
	}
	host, err := l.timed("host-nproc-threads", "omp", hostRun(runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	l.m["kernels.serial_s"] = serial
	l.m["kernels.gflop_s"] = p.flops / serial / 1e9
	l.m["omp.host_s"] = host
	l.m["offload.overhead_x"] = median(plain) / host // base: omp.host_s

	if err := l.replayTransfers(p.inputs(), 0); err != nil {
		return err
	}
	if err := l.replayStore(); err != nil {
		return err
	}
	if err := l.replaySpark(tiles); err != nil {
		return err
	}
	return l.replayPluginBuild()
}

// histSum is the sum of a histogram's observations: a read-only view of the
// program's own spark.task.compute.seconds.
func histSum(h *span.Histogram) float64 { return h.Mean() * float64(h.Count()) }

func addStats(dst, src *storeStats) {
	dst.putBusy.Add(src.putBusy.Load())
	dst.getBusy.Add(src.getBusy.Load())
	dst.puts.Add(src.puts.Load())
	dst.gets.Add(src.gets.Load())
	dst.others.Add(src.others.Load())
	dst.bytesPut.Add(src.bytesPut.Load())
	dst.bytesGot.Add(src.bytesGot.Load())
	dst.errors.Add(src.errors.Load())
	dst.peak.Store(max(dst.peak.Load(), src.peak.Load()))
}

// storeMetrics reports the timing Store wrapper's totals per op.
func (l *layerRun) storeMetrics(s *storeStats, ops float64) {
	l.m["storage.put_busy_s"] = time.Duration(s.putBusy.Load()).Seconds() / ops
	l.m["storage.get_busy_s"] = time.Duration(s.getBusy.Load()).Seconds() / ops
	l.m["storage.puts"] = float64(s.puts.Load()) / ops
	l.m["storage.gets"] = float64(s.gets.Load()) / ops
	l.m["storage.other_ops"] = float64(s.others.Load()) / ops
	l.m["storage.bytes_put"] = float64(s.bytesPut.Load()) / ops
	l.m["storage.bytes_got"] = float64(s.bytesGot.Load()) / ops
	l.m["storage.errors"] = float64(s.errors.Load()) / ops
	l.m["storage.inflight_max"] = float64(s.peak.Load())
}

// reportMetrics is Fig. 5's decomposition: the Report phases and counters of
// the real ops, medians for the virtual times and means for the counters.
func (l *layerRun) reportMetrics(reports []*trace.Report) {
	phase := func(ph trace.Phase) float64 {
		var v []float64
		for _, r := range reports {
			v = append(v, r.Phases[ph].Seconds())
		}
		return median(v)
	}
	per := func(f func(*trace.Report) float64) float64 {
		var v []float64
		for _, r := range reports {
			v = append(v, f(r))
		}
		return mean(v)
	}
	l.m["offload.virt_upload_s"] = phase(trace.PhaseUpload)
	l.m["offload.virt_spark_s"] = phase(trace.PhaseSpark)
	l.m["offload.virt_compute_s"] = phase(trace.PhaseCompute)
	l.m["offload.virt_download_s"] = phase(trace.PhaseDownload)
	l.m["offload.virt_overlap_s"] = per(func(r *trace.Report) float64 { return r.WallOverlap.Seconds() })
	l.m["offload.wan_up_bytes"] = per(func(r *trace.Report) float64 { return float64(r.BytesUploaded) })
	l.m["offload.wan_down_bytes"] = per(func(r *trace.Report) float64 { return float64(r.BytesDownloaded) })
	l.m["offload.storage_retries"] = per(func(r *trace.Report) float64 { return float64(r.StorageRetries) })
	l.m["offload.deadline_aborts"] = per(func(r *trace.Report) float64 { return float64(r.DeadlineAborts) })
	l.m["offload.fell_back"] = per(func(r *trace.Report) float64 {
		if r.FellBack {
			return 1
		}
		return 0
	})
	l.m["spark.tasks"] = per(func(r *trace.Report) float64 { return float64(r.Tiles) })
	l.m["spark.task_failures"] = per(func(r *trace.Report) float64 { return float64(r.TaskFailures) })
}

// --- replays -------------------------------------------------------------

// replayTransfers replays the codec and the chunked transfer engine over the
// op's inputs, cut at the plugin's chunk size (0 means the library default).
func (l *layerRun) replayTransfers(inputs [][]byte, chunkBytes int) error {
	codec := xcompress.Codec{} // the default CloudConfig's: auto
	wireBPS := netsim.DefaultProfile().WAN.BitsPerSs / 8
	cs := chunkBytes
	if cs == 0 {
		cs = chunkio.DefaultChunkSize
	}

	// xcompress, one thread: verdict, encode, decode per chunk.
	runtime.GC()
	var verdictS, encodeS, decodeS float64
	var raw, wire, chunks, rawChunks int
	enc := make([]byte, 0, cs+64)
	dec := make([]byte, cs)
	for _, buf := range inputs {
		var plan func([]byte) xcompress.Verdict
		s, _ := l.timed("planner", "xcompress", func() error { plan = codec.Planner(buf, wireBPS); return nil })
		verdictS += s
		for lo := 0; lo < len(buf); lo += cs {
			chunk := buf[lo:min(lo+cs, len(buf))]
			var v xcompress.Verdict
			s, _ := l.timed("verdict", "xcompress", func() error { v = plan(chunk); return nil })
			verdictS += s
			s, err := l.timed("encode", "xcompress", func() (err error) {
				enc, err = codec.AppendEncode(enc[:0], chunk, v)
				return err
			})
			if err != nil {
				return err
			}
			encodeS += s
			s, err = l.timed("decode", "xcompress", func() error { return xcompress.DecodeInto(enc, dec[:len(chunk)]) })
			if err != nil {
				return err
			}
			decodeS += s
			l.attempted++
			if !bytes.Equal(dec[:len(chunk)], chunk) {
				l.fail("xcompress replay: chunk at %d does not round-trip", lo)
			}
			raw += len(chunk)
			wire += len(enc)
			chunks++
			if !xcompress.IsCompressed(enc) {
				rawChunks++
			}
		}
	}
	l.m["xcompress.verdict_s"] = verdictS
	l.m["xcompress.encode_s"] = encodeS
	l.m["xcompress.decode_s"] = decodeS
	l.m["xcompress.wire_ratio"] = float64(wire) / float64(raw)
	l.m["xcompress.raw_chunk_share"] = float64(rawChunks) / float64(chunks)

	// chunkio against a MemStore: Upload, DownloadInto, Pipe.
	opts := chunkio.Options{Codec: codec, ChunkSize: chunkBytes, WireBytesPerS: wireBPS}
	var uploadS, downloadS, pipeS float64
	var nChunks, retries int
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i, buf := range inputs {
		key := fmt.Sprintf("replay/in%d", i)
		up, down := storage.NewMemStore(), make([]byte, len(buf))
		s, err := l.timed("upload", "chunkio", func() error {
			res, err := chunkio.Upload(up, key, buf, opts)
			if err == nil {
				nChunks += res.Chunks
				retries += res.Retries
			}
			return err
		})
		if err != nil {
			return err
		}
		uploadS += s
		s, err = l.timed("download", "chunkio", func() error {
			res, err := chunkio.DownloadInto(up, key, down, opts)
			if err == nil {
				retries += res.Retries
			}
			return err
		})
		if err != nil {
			return err
		}
		downloadS += s
		l.attempted++
		if !bytes.Equal(down, buf) {
			l.fail("chunkio replay: input %d does not survive Upload+DownloadInto", i)
		}
		clear(down)
		s, err = l.timed("pipe", "chunkio", func() error {
			res, err := chunkio.Pipe(storage.NewMemStore(), key, buf, down, opts, nil)
			if err == nil {
				retries += res.Up.Retries + res.Down.Retries
			}
			return err
		})
		if err != nil {
			return err
		}
		pipeS += s
		l.attempted++
		if !bytes.Equal(down, buf) {
			l.fail("chunkio replay: input %d does not survive Pipe", i)
		}
	}
	runtime.ReadMemStats(&m1)
	l.m["chunkio.upload_s"] = uploadS
	l.m["chunkio.download_s"] = downloadS
	l.m["chunkio.pipe_s"] = pipeS
	l.m["chunkio.chunks"] = float64(nChunks)
	l.m["chunkio.alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	l.m["chunkio.retries"] = float64(retries)
	return nil
}

// replayStore measures 1 MiB PUTs and GETs through the loopback client and
// through a bare MemStore.
func (l *layerRun) replayStore() error {
	srv, err := storage.Serve("127.0.0.1:0", storage.NewMemStore())
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := storage.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	payload := make([]byte, 1<<20)
	fillFloats(payload, data.Dense, 7)
	mibPerS := func(name string, st storage.Store, get bool) (float64, error) {
		pass := func() error {
			for i := 0; i < wireReps; i++ {
				key := fmt.Sprintf("replay/%d", i)
				if get {
					if _, err := st.Get(key); err != nil {
						return err
					}
				} else if err := st.Put(key, payload); err != nil {
					return err
				}
			}
			return nil
		}
		// Collect first, as before every op: with garbage from the ops
		// still on the heap every allocation here faulted fresh pages
		// in, and that, not the store, set the rate (10× slower).
		runtime.GC()
		s, err := l.timed(name, "storage", pass)
		return wireReps / s, err
	}
	if l.m["storage.wire_put_mib_s"], err = mibPerS("wire-put", cli, false); err != nil {
		return err
	}
	if l.m["storage.wire_get_mib_s"], err = mibPerS("wire-get", cli, true); err != nil {
		return err
	}
	l.m["storage.mem_put_mib_s"], err = mibPerS("mem-put", storage.NewMemStore(), false)
	return err
}

// replaySpark times an empty job: Range→Map→Collect with a trivial body at
// the op's tile count, so what is left is submit, schedule and collect.
func (l *layerRun) replaySpark(parts int) error {
	ctx, err := spark.NewContext(spark.ClusterSpec{Workers: 1, CoresPerWorker: parts})
	if err != nil {
		return err
	}
	s, err := l.medianOf("empty-job", "spark", replayReps, func() error {
		r, err := spark.Range(ctx, int64(parts), parts)
		if err != nil {
			return err
		}
		_, _, err = spark.Map(r, func(i int64) (int64, error) { return i, nil }).Collect()
		return err
	})
	l.m["spark.empty_job_ms"] = s * 1e3
	return err
}

// replayPluginBuild times NewCloudPlugin plus Close with the region ops'
// config.
func (l *layerRun) replayPluginBuild() error {
	cfg := regionConfig(storage.NewMemStore())
	s, err := l.medianOf("plugin-build", "offload", replayReps, func() error {
		p, err := offload.NewCloudPlugin(cfg)
		if err != nil {
			return err
		}
		return p.Close()
	})
	l.m["offload.plugin_build_ms"] = s * 1e3
	return err
}

// --- the daemon workload -------------------------------------------------

func (l *layerRun) daemon(cfg runConfig) error {
	// One block untraced, one traced, so the overhead is a difference of
	// two like runs in one process.
	plain, err := runDaemonBlock(cfg.sz, cfg.seed, nil)
	if err != nil {
		return err
	}
	tb, err := runDaemonBlock(cfg.sz, cfg.seed, l.tr)
	if err != nil {
		return err
	}
	l.m["spark.task_busy_s"] = tb.taskBusyS
	l.m["kernels.calls"] = tb.kernelCalls
	l.tally = tb.tally
	if len(tb.ops) == 0 || len(plain.ops) == 0 {
		return fmt.Errorf("daemon-smalljobs: no traced job completed: %v", tb.failures)
	}
	walls := func(ops []opSample) []float64 {
		var v []float64
		for _, o := range ops {
			v = append(v, o.wallS)
		}
		return v
	}
	n := float64(len(tb.ops))
	l.m["trace.overhead_share"] = median(walls(tb.ops))/median(walls(plain.ops)) - 1
	l.m["host.slowdown_x"] = median(append(plain.probes, tb.probes...)) / probeRefS // base: the reference host speed
	l.m["host.raw_op_wall_s"] = median(walls(plain.ops))
	l.m["proc.gc_cycles_per_op"] = float64(tb.gcCycles) / n
	l.m["proc.gc_pause_ms_per_op"] = float64(tb.gcPauseNS) / 1e6 / n
	l.storeMetrics(tb.rig.stats, n)
	l.reportMetrics(tb.rig.exec.reports)
	l.m["serve.store_keys_end"] = float64(tb.keysEnd)
	l.m["serve.rejected"] = float64(tb.rejected)
	l.m["serve.lost_responses"] = float64(tb.lost)

	// Executor time per job, and what the job waited outside it: its
	// sojourn as the client saw it minus its executor time.
	var exec, wait, first, last []float64
	for i, j := range tb.jobs {
		busy, ok := tb.rig.exec.busy[j.id]
		if j.failure != "" || !ok {
			continue
		}
		exec = append(exec, busy.Seconds()*1e3)
		wait = append(wait, j.wallS*1e3-busy.Seconds()*1e3)
		switch {
		case i < len(tb.jobs)/4:
			first = append(first, j.wallS)
		case i >= len(tb.jobs)-len(tb.jobs)/4:
			last = append(last, j.wallS)
		}
	}
	l.m["offload.op_self_s"] = l.tr.selfTime(tb.rig.exec.spans...).Seconds() / float64(len(tb.rig.exec.spans))
	l.m["serve.exec_busy_ms"] = median(exec)
	l.m["serve.op_wall_p99_ms"] = quantile(walls(tb.ops), 0.99) * 1e3
	l.m["serve.front_wait_ms"] = median(wait)
	if len(first) > 0 && len(last) > 0 {
		l.m["serve.tail_slowdown_x"] = mean(last) / mean(first) // base: the first quarter's mean sojourn
	}

	if err := l.replayDaemon(cfg.sz); err != nil {
		return err
	}
	if err := l.replayJobSteps(cfg.sz, cfg.seed); err != nil {
		return err
	}

	// The plain baselines of one job.
	job := func(threads int) func() error {
		return func() error { _, err := hostGEMM(cfg.sz.daemonN, checkSeed(cfg.seed, 0), threads); return err }
	}
	serial, err := l.medianOf("host-1-thread", "kernels", replayReps, job(1))
	if err != nil {
		return err
	}
	host, err := l.medianOf("host-nproc-threads", "omp", replayReps, job(runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	l.m["kernels.serial_s"] = serial
	l.m["kernels.gflop_s"] = kernels.GEMM.Ops(cfg.sz.daemonN) / serial / 1e9
	l.m["omp.host_s"] = host
	l.m["offload.overhead_x"] = median(walls(plain.ops)) / host // base: omp.host_s

	n96 := cfg.sz.daemonN
	inputs := make([][]byte, 3) // A, B, C of one job
	for i := range inputs {
		inputs[i] = data.Generate(n96, n96, data.Dense, checkSeed(cfg.seed, 0)+int64(i)).Bytes()
	}
	if err := l.replayTransfers(inputs, 4096); err != nil {
		return err
	}
	if err := l.replayStore(); err != nil {
		return err
	}
	return l.replaySpark(serve.DefaultPoolCores)
}

// replayDaemon drives a fresh Daemon directly — Submit, Dispatch, Complete —
// with a no-op executor: the admission, journal and release cost alone.
func (l *layerRun) replayDaemon(sz sizes) error {
	d, err := serve.New(daemonConfig(storage.NewMemStore()))
	if err != nil {
		return err
	}
	var admit, dispatch, complete []float64
	for i := 0; i < daemonReps; i++ {
		now := simtime.Duration(i) * simtime.Millisecond
		var job *serve.Job
		s, err := l.timed("submit", "serve", func() error {
			j, rej, err := d.Submit("t0", "c0", serve.JobSpec{Bench: daemonBench, N: sz.daemonN, Seed: int64(i)}, now)
			if err == nil && rej != nil {
				err = rej
			}
			job = j
			return err
		})
		if err != nil {
			return err
		}
		admit = append(admit, s*1e6)
		var grants []serve.Grant
		s, _ = l.timed("dispatch", "serve", func() error { grants = d.Dispatch(now); return nil })
		if len(grants) != 1 || grants[0].Job != job {
			return fmt.Errorf("serve replay: job %d was not dispatched", i)
		}
		dispatch = append(dispatch, s*1e6)
		s, err = l.timed("complete", "serve", func() error { return d.Complete(job, serve.Result{}, now) })
		if err != nil {
			return err
		}
		complete = append(complete, s*1e6)
	}
	l.m["serve.admit_us"] = median(admit)
	l.m["serve.dispatch_us"] = median(dispatch)
	l.m["serve.complete_us"] = median(complete)

	// The gob front alone: a stats round trip does no daemon work to speak of.
	front, err := serve.ListenAndServe("127.0.0.1:0", d, &serve.PoolExecutor{Base: storage.NewMemStore()})
	if err != nil {
		return err
	}
	defer front.Drain(time.Second)
	cl, err := serve.DialFront(front.Addr())
	if err != nil {
		return err
	}
	defer cl.Close()
	rtt, err := l.medianOf("stats-rtt", "serve", daemonReps, func() error { _, err := cl.FrontStats(); return err })
	l.m["serve.rtt_us"] = rtt * 1e6
	return err
}

// replayJobSteps replays PoolExecutor.Run's own steps with its config:
// prepare the workload, build the per-job plugin and runtime, run, copy the
// outputs out.
func (l *layerRun) replayJobSteps(sz sizes, seed int64) error {
	base := storage.NewMemStore()
	var prepare, build, run, copyout []float64
	for i := 0; i < replayReps; i++ {
		var w *kernels.Workload
		s, _ := l.timed("job-prepare", "serve", func() error {
			w = kernels.GEMM.Prepare(sz.daemonN, data.Dense, checkSeed(seed, i%sz.checkPool))
			return nil
		})
		prepare = append(prepare, s*1e3)

		var plugin *offload.CloudPlugin
		var rt *omp.Runtime
		var dev omp.Device
		s, err := l.timed("job-build", "serve", func() error {
			st, err := storage.NewPrefix(base, "tenants/replay/")
			if err != nil {
				return err
			}
			cores := serve.DefaultPoolCores
			plugin, err = offload.NewCloudPlugin(offload.CloudConfig{
				Spec:            spark.ClusterSpec{Workers: cores, CoresPerWorker: 1},
				Store:           st,
				EnableCache:     true,
				Resume:          true,
				Fallback:        offload.FallbackFail,
				ChunkBytes:      4096,
				RealParallelism: cores,
				RetryBase:       -1,
				RetrySleep:      func(time.Duration) {},
			})
			if err != nil {
				return err
			}
			if rt, err = omp.NewRuntime(cores); err != nil {
				return err
			}
			dev = rt.RegisterDevice(plugin)
			return nil
		})
		if err != nil {
			return err
		}
		build = append(build, s*1e3)

		s, err = l.timed("job-run", "serve", func() error { _, err := w.Run(rt, dev); return err })
		if err != nil {
			return err
		}
		run = append(run, s*1e3)

		s, _ = l.timed("job-copyout", "serve", func() error {
			for _, out := range w.Outputs() {
				cp := make([]float32, len(out))
				copy(cp, out)
			}
			return plugin.Close()
		})
		copyout = append(copyout, s*1e3)
	}
	l.m["serve.job_prepare_ms"] = median(prepare)
	l.m["serve.job_build_ms"] = median(build)
	l.m["serve.job_run_ms"] = median(run)
	l.m["serve.job_copyout_ms"] = median(copyout)
	l.m["offload.plugin_build_ms"] = median(build)
	return nil
}
